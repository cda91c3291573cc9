#include "core/signed_update.h"

namespace prever::core {

Status ProducerKeyDirectory::Register(const std::string& producer,
                                      crypto::RsaPublicKey key) {
  auto [it, inserted] = keys_.emplace(producer, std::move(key));
  if (!inserted) {
    return Status::AlreadyExists("producer '" + producer +
                                 "' already has a key");
  }
  return Status::Ok();
}

Result<const crypto::RsaPublicKey*> ProducerKeyDirectory::Find(
    const std::string& producer) const {
  auto it = keys_.find(producer);
  if (it == keys_.end()) {
    return Status::NotFound("no key registered for '" + producer + "'");
  }
  return &it->second;
}

Result<SignedUpdate> SignUpdate(Update update,
                                const crypto::RsaKeyPair& key) {
  SignedUpdate out;
  PREVER_ASSIGN_OR_RETURN(out.signature, crypto::RsaSign(key, update.Encode()));
  out.update = std::move(update);
  return out;
}

Status VerifyUpdateSignature(const SignedUpdate& signed_update,
                             const ProducerKeyDirectory& directory) {
  auto key = directory.Find(signed_update.update.producer);
  if (!key.ok()) {
    return Status::PermissionDenied("unknown producer '" +
                                    signed_update.update.producer + "'");
  }
  if (!crypto::RsaVerify(**key, signed_update.update.Encode(),
                         signed_update.signature)) {
    return Status::IntegrityViolation(
        "update signature does not verify for producer '" +
        signed_update.update.producer + "'");
  }
  return Status::Ok();
}

Status AuthenticatingEngine::SubmitSigned(const SignedUpdate& signed_update) {
  Status authenticated = VerifyUpdateSignature(signed_update, *directory_);
  if (!authenticated.ok()) {
    ++rejected_signatures_;
    return authenticated;
  }
  return inner_->SubmitUpdate(signed_update.update);
}

Status AuthenticatingEngine::SubmitUpdate(const Update& update) {
  (void)update;
  ++rejected_signatures_;
  return Status::PermissionDenied(
      "this deployment requires signed updates; use SubmitSigned");
}

}  // namespace prever::core
