#ifndef PREVER_CORE_SIGNED_UPDATE_H_
#define PREVER_CORE_SIGNED_UPDATE_H_

#include <map>
#include <memory>
#include <string>

#include "core/engine.h"
#include "crypto/rsa.h"

namespace prever::core {

/// Producer authentication for updates. §3.2: "an update may involve
/// several participants including at least a data producer" — a manager
/// must be able to tell that an update really originates from the claimed
/// producer (otherwise one worker could burn another worker's regulation
/// budget). Updates are signed over their canonical encoding.
struct SignedUpdate {
  Update update;
  Bytes signature;  ///< Producer's FDH-RSA signature over update.Encode().
};

/// Maps producer ids to their registered public keys.
class ProducerKeyDirectory {
 public:
  Status Register(const std::string& producer, crypto::RsaPublicKey key);
  Result<const crypto::RsaPublicKey*> Find(const std::string& producer) const;
  size_t size() const { return keys_.size(); }

 private:
  std::map<std::string, crypto::RsaPublicKey> keys_;
};

/// Producer-side signing. Fails only when RsaSign's fault check does.
Result<SignedUpdate> SignUpdate(Update update, const crypto::RsaKeyPair& key);

/// Manager-side check: the signature must verify under the key registered
/// for `update.producer`. PermissionDenied for unknown producers,
/// IntegrityViolation for bad signatures.
Status VerifyUpdateSignature(const SignedUpdate& signed_update,
                             const ProducerKeyDirectory& directory);

/// Decorator: authenticates every update before delegating to any engine.
/// Composes with all five engines (the pipeline's step 1-to-2 boundary).
class AuthenticatingEngine : public UpdateEngine {
 public:
  AuthenticatingEngine(UpdateEngine* inner,
                       const ProducerKeyDirectory* directory)
      : inner_(inner), directory_(directory) {}

  /// Preferred entry point.
  Status SubmitSigned(const SignedUpdate& signed_update);

  /// Unsigned submissions are rejected outright.
  Status SubmitUpdate(const Update& update) override;

  EngineStats stats() const override { return inner_->stats(); }
  const char* name() const override { return "authenticating"; }

  uint64_t rejected_signatures() const { return rejected_signatures_; }

 private:
  UpdateEngine* inner_;
  const ProducerKeyDirectory* directory_;
  uint64_t rejected_signatures_ = 0;
};

}  // namespace prever::core

#endif  // PREVER_CORE_SIGNED_UPDATE_H_
