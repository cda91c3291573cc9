#ifndef PREVER_CORE_ENCRYPTED_ENGINE_H_
#define PREVER_CORE_ENCRYPTED_ENGINE_H_

#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "constraint/linear.h"
#include "core/engine.h"
#include "core/engine_metrics.h"
#include "core/ordering.h"
#include "crypto/paillier.h"
#include "crypto/pedersen.h"
#include "crypto/zkp.h"

namespace prever::core {

/// A private value sealed by its producer for the RC1 engine:
///  - `value_ct`   Paillier encryption of v (manager aggregates these),
///  - `rand_ct`    Paillier encryption of the commitment randomness r (so
///                 the owner can recover aggregate randomness),
///  - `commitment` Pedersen commitment g^v h^r (manager-verifiable binding),
///  - `range_proof` producer's proof that v ∈ [0, 2^value_bits) — without
///                 it a covert producer could inject "negative" values to
///                 deflate the aggregate.
struct SealedValue {
  crypto::PaillierCiphertext value_ct;
  crypto::PaillierCiphertext rand_ct;
  crypto::PedersenCommitment commitment;
  crypto::RangeProof range_proof;
};

/// The data owner of the single-private-database setting (§2.1): holds the
/// Paillier private key and answers bound-attestation requests from the
/// untrusted manager. The owner is covert w.r.t. compliance (it wants the
/// certificate) — but it cannot cheat, because the proof it returns is
/// verified against the commitment aggregate the MANAGER computed.
class DataOwner {
 public:
  /// `paillier_bits` is a lower bound: the constructor enforces a modulus of
  /// at least |q| + 64 bits so aggregated commitment randomness (sums of
  /// values < q) never wraps the plaintext space.
  DataOwner(size_t paillier_bits, const crypto::PedersenParams& pedersen,
            uint64_t seed);
  virtual ~DataOwner() = default;

  const crypto::PaillierPublicKey& paillier_pub() const { return keys_.pub; }
  const crypto::PedersenParams& pedersen() const { return *pedersen_; }

  /// Producer-side sealing (uses only public material + fresh randomness).
  Result<SealedValue> Seal(int64_t value, size_t value_bits,
                           crypto::Drbg& drbg) const;

  /// Oracle: decrypts the aggregates, checks consistency with the manager's
  /// commitment product, and (if compliant) returns a ZK proof that the
  /// total respects the bound. ConstraintViolation when the total violates
  /// it; IntegrityViolation when ciphertexts and commitment disagree.
  /// Virtual so the security tests can model a Byzantine owner returning
  /// proofs for the wrong statement — the manager-side verification must
  /// catch those regardless of what the oracle answers.
  virtual Result<crypto::RangeProof> AttestUpperBound(
      const crypto::PaillierCiphertext& total_value_ct,
      const crypto::PaillierCiphertext& total_rand_ct,
      const crypto::PedersenCommitment& total_cm, int64_t bound,
      size_t slack_bits);

  virtual Result<crypto::RangeProof> AttestLowerBound(
      const crypto::PaillierCiphertext& total_value_ct,
      const crypto::PaillierCiphertext& total_rand_ct,
      const crypto::PedersenCommitment& total_cm, int64_t bound,
      size_t slack_bits);

  /// Decryptions performed (privacy-cost accounting for the benches).
  uint64_t attestations() const { return attestations_; }

 private:
  Result<std::pair<crypto::BigInt, crypto::BigInt>> DecryptTotals(
      const crypto::PaillierCiphertext& total_value_ct,
      const crypto::PaillierCiphertext& total_rand_ct,
      const crypto::PedersenCommitment& total_cm);

  crypto::PaillierKeyPair keys_;
  const crypto::PedersenParams* pedersen_;
  crypto::Drbg drbg_;
  uint64_t attestations_ = 0;
};

/// One upper/lower bound the RC1 engine enforces over the sealed values,
/// grouped by a public attribute and optionally windowed by time. This is
/// the engine-side compilation target of a LinearBoundForm.
struct RegulatedBound {
  constraint::BoundDirection direction = constraint::BoundDirection::kUpper;
  int64_t bound = 0;
  SimTime window = 0;  ///< 0 = all history.
  size_t slack_bits = 32;
};

/// RC1 engine: an untrusted data manager verifies updates against bound
/// constraints and executes them on private data, learning only public
/// routing attributes and accept/reject bits. See DESIGN.md §2 for the
/// FHE→Paillier substitution argument.
class EncryptedEngine : public UpdateEngine {
 public:
  /// Updates must carry fields `<group_field>` (public string, e.g. the
  /// worker pseudonym or sustainability metric id) and `<value_field>`
  /// (private int64, sealed before the manager sees it).
  EncryptedEngine(DataOwner* owner, OrderingService* ordering,
                  std::string group_field, std::string value_field,
                  std::vector<RegulatedBound> bounds,
                  size_t value_bits = 16, uint64_t seed = 1);

  /// Convenience: runs the producer-side sealing then SubmitSealed — the
  /// manager-side code never touches `update.fields[value_field]`.
  Status SubmitUpdate(const Update& update) override;

  EngineStats stats() const override { return metrics_.Snapshot(); }
  const char* name() const override { return "encrypted-rc1"; }

  /// What the manager stores: no plaintext anywhere.
  struct SealedRow {
    std::string group;
    SimTime timestamp = 0;
    SealedValue sealed;
  };

  struct SealedSubmission {
    std::string id;
    std::string producer;
    SimTime timestamp = 0;
    std::string group;
    SealedValue sealed;
  };

  /// Producer side.
  Result<SealedSubmission> Seal(const Update& update);

  /// Manager side: verify (producer range proof + owner attestations per
  /// bound) then store + ledger.
  Status SubmitSealed(const SealedSubmission& submission);

  /// Producer side for a whole batch; stops at the first sealing failure.
  Result<std::vector<SealedSubmission>> SealBatch(
      const std::vector<Update>& updates);

  /// Manager side for a whole batch. The producers' range proofs are
  /// independent read-only checks, so when a thread pool is set they are
  /// verified concurrently; aggregation, owner attestation and ledgering
  /// then proceed serially in batch order (they mutate engine state).
  /// Every submission is judged individually — a rejected update does not
  /// abort the batch — and the first non-OK status is returned.
  Status SubmitSealedBatch(const std::vector<SealedSubmission>& batch);

  /// Optional worker pool (not owned; may be null) for batch verification.
  void set_thread_pool(common::ThreadPool* pool) { pool_ = pool; }

  size_t NumRows(const std::string& group) const;

 private:
  /// Range-proof check shared by the serial and batch paths (thread-safe).
  bool VerifyProducerRange(const SealedSubmission& submission) const;
  /// VerifyProducerRange as a crypto phase of the current submit.
  bool CheckProducerRange(const SealedSubmission& submission);
  /// Submit body after the range check: per-bound attestations, then the
  /// ledger entry and the stored row through OrderThenApply.
  Status Admit(const SealedSubmission& submission, bool range_ok);

  DataOwner* owner_;
  OrderingService* ordering_;
  std::string group_field_;
  std::string value_field_;
  std::vector<RegulatedBound> bounds_;
  size_t value_bits_;
  crypto::Drbg producer_drbg_;
  common::ThreadPool* pool_ = nullptr;
  std::map<std::string, std::vector<SealedRow>> rows_;
  EngineMetrics metrics_{"encrypted-rc1"};
};

}  // namespace prever::core

#endif  // PREVER_CORE_ENCRYPTED_ENGINE_H_
