#include "core/encrypted_engine.h"

#include "crypto/sha256.h"
#include "mutate/mutation.h"

namespace prever::core {

using crypto::BigInt;
using crypto::PaillierCiphertext;
using crypto::PedersenCommitment;
using crypto::RangeProof;

DataOwner::DataOwner(size_t paillier_bits,
                     const crypto::PedersenParams& pedersen, uint64_t seed)
    : pedersen_(&pedersen), drbg_(seed) {
  // The owner decrypts SUMS of commitment randomness (each < q). The
  // Paillier plaintext space must hold ~2^64 of them without wrapping, or
  // the binding check would reject honest aggregates. Grow the modulus to
  // |q| + 64 bits if the caller asked for less.
  size_t min_bits = pedersen.q.BitLength() + 64;
  if (min_bits % 2 != 0) ++min_bits;
  if (paillier_bits < min_bits) paillier_bits = min_bits;
  keys_ = crypto::PaillierGenerateKey(paillier_bits, drbg_).value();
}

Result<SealedValue> DataOwner::Seal(int64_t value, size_t value_bits,
                                    crypto::Drbg& drbg) const {
  if (value < 0 || BigInt(value).BitLength() > value_bits) {
    return Status::InvalidArgument("value outside [0, 2^value_bits)");
  }
  SealedValue sealed;
  BigInt v(value);
  BigInt r = drbg.RandomBelow(pedersen_->q);
  sealed.commitment = crypto::PedersenCommit(*pedersen_, v, r);
  PREVER_ASSIGN_OR_RETURN(sealed.value_ct,
                          crypto::PaillierEncrypt(keys_.pub, v, drbg));
  PREVER_ASSIGN_OR_RETURN(sealed.rand_ct,
                          crypto::PaillierEncrypt(keys_.pub, r, drbg));
  PREVER_ASSIGN_OR_RETURN(
      sealed.range_proof,
      crypto::ProveRange(*pedersen_, sealed.commitment, v, r, value_bits,
                         drbg));
  return sealed;
}

Result<std::pair<BigInt, BigInt>> DataOwner::DecryptTotals(
    const PaillierCiphertext& total_value_ct,
    const PaillierCiphertext& total_rand_ct,
    const PedersenCommitment& total_cm) {
  ++attestations_;
  PREVER_ASSIGN_OR_RETURN(BigInt total,
                          crypto::PaillierDecrypt(keys_, total_value_ct));
  PREVER_ASSIGN_OR_RETURN(BigInt rand_sum,
                          crypto::PaillierDecrypt(keys_, total_rand_ct));
  BigInt rand_mod_q = rand_sum.Mod(pedersen_->q);
  // Binding check: the manager's commitment product must open to exactly
  // what the ciphertext aggregates decrypt to.
  if (PREVER_MUTATION(
          ENC_BINDING_SKIP,
          !crypto::PedersenVerify(*pedersen_, total_cm, total, rand_mod_q),
          false)) {
    return Status::IntegrityViolation(
        "ciphertext aggregate and commitment aggregate disagree");
  }
  return std::make_pair(total, rand_mod_q);
}

Result<RangeProof> DataOwner::AttestUpperBound(
    const PaillierCiphertext& total_value_ct,
    const PaillierCiphertext& total_rand_ct,
    const PedersenCommitment& total_cm, int64_t bound, size_t slack_bits) {
  PREVER_ASSIGN_OR_RETURN(
      auto totals, DecryptTotals(total_value_ct, total_rand_ct, total_cm));
  const auto& [total, rand_mod_q] = totals;
  if (PREVER_MUTATION(ENC_BOUND_OFFBYONE, total > BigInt(bound),
                      total > BigInt(bound) + BigInt(1))) {
    return Status::ConstraintViolation("aggregate exceeds upper bound");
  }
  return crypto::ProveUpperBound(*pedersen_, total_cm, total, rand_mod_q,
                                 BigInt(bound), slack_bits, drbg_);
}

Result<RangeProof> DataOwner::AttestLowerBound(
    const PaillierCiphertext& total_value_ct,
    const PaillierCiphertext& total_rand_ct,
    const PedersenCommitment& total_cm, int64_t bound, size_t slack_bits) {
  PREVER_ASSIGN_OR_RETURN(
      auto totals, DecryptTotals(total_value_ct, total_rand_ct, total_cm));
  const auto& [total, rand_mod_q] = totals;
  if (total < BigInt(bound)) {
    return Status::ConstraintViolation("aggregate below lower bound");
  }
  return crypto::ProveLowerBound(*pedersen_, total_cm, total, rand_mod_q,
                                 BigInt(bound), slack_bits, drbg_);
}

EncryptedEngine::EncryptedEngine(DataOwner* owner, OrderingService* ordering,
                                 std::string group_field,
                                 std::string value_field,
                                 std::vector<RegulatedBound> bounds,
                                 size_t value_bits, uint64_t seed)
    : owner_(owner),
      ordering_(ordering),
      group_field_(std::move(group_field)),
      value_field_(std::move(value_field)),
      bounds_(std::move(bounds)),
      value_bits_(value_bits),
      producer_drbg_(seed) {}

Result<EncryptedEngine::SealedSubmission> EncryptedEngine::Seal(
    const Update& update) {
  auto group_it = update.fields.find(group_field_);
  auto value_it = update.fields.find(value_field_);
  if (group_it == update.fields.end() || value_it == update.fields.end()) {
    return Status::InvalidArgument("update lacks '" + group_field_ +
                                   "' or '" + value_field_ + "' field");
  }
  PREVER_ASSIGN_OR_RETURN(std::string group, group_it->second.AsString());
  PREVER_ASSIGN_OR_RETURN(int64_t value, value_it->second.AsInt64());
  SealedSubmission out;
  out.id = update.id;
  out.producer = update.producer;
  out.timestamp = update.timestamp;
  out.group = std::move(group);
  PREVER_ASSIGN_OR_RETURN(out.sealed,
                          owner_->Seal(value, value_bits_, producer_drbg_));
  return out;
}

Status EncryptedEngine::SubmitUpdate(const Update& update) {
  return metrics_.Submit([&]() -> Status {
    // Producer-side sealing runs inside the submit scope, as a crypto phase.
    auto seal = metrics_.Phase(obs::TraceStage::kCrypto);
    PREVER_ASSIGN_OR_RETURN(SealedSubmission sealed, Seal(update));
    seal.End();
    return Admit(sealed, CheckProducerRange(sealed));
  });
}

bool EncryptedEngine::VerifyProducerRange(
    const SealedSubmission& submission) const {
  return crypto::VerifyRange(owner_->pedersen(), submission.sealed.commitment,
                             submission.sealed.range_proof, value_bits_);
}

bool EncryptedEngine::CheckProducerRange(const SealedSubmission& submission) {
  // Manager-side check 1: the producer proved its hidden value is in range.
  auto range = metrics_.Phase(obs::TraceStage::kCrypto);
  return VerifyProducerRange(submission);
}

Status EncryptedEngine::SubmitSealed(const SealedSubmission& submission) {
  return metrics_.Submit(
      [&] { return Admit(submission, CheckProducerRange(submission)); });
}

Result<std::vector<EncryptedEngine::SealedSubmission>>
EncryptedEngine::SealBatch(const std::vector<Update>& updates) {
  std::vector<SealedSubmission> out;
  out.reserve(updates.size());
  for (const Update& update : updates) {
    PREVER_ASSIGN_OR_RETURN(SealedSubmission sealed, Seal(update));
    out.push_back(std::move(sealed));
  }
  return out;
}

Status EncryptedEngine::SubmitSealedBatch(
    const std::vector<SealedSubmission>& batch) {
  // Phase 1: all producer range proofs, fanned out across the pool. Each
  // check only reads immutable submission data and the (internally
  // synchronized) crypto caches, so iterations are independent.
  std::vector<char> range_ok(batch.size(), 0);
  {
    // The one phase sample taken outside a submit scope: the pre-pass is
    // shared by the whole batch, so it runs before any per-item scope opens
    // (and its causal span stays silent, having no submit root to join).
    auto range = metrics_.Phase(obs::TraceStage::kCrypto);
    auto verify_one = [&](size_t i) {
      range_ok[i] = VerifyProducerRange(batch[i]) ? 1 : 0;
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(batch.size(), verify_one);
    } else {
      for (size_t i = 0; i < batch.size(); ++i) verify_one(i);
    }
  }
  // Phase 2: attestation + commit, serial and in batch order — the running
  // aggregates and the ledger are order-sensitive shared state.
  Status first = Status::Ok();
  for (size_t i = 0; i < batch.size(); ++i) {
    Status s = metrics_.Submit(
        [&] { return Admit(batch[i], range_ok[i] != 0); }, /*trace_arg=*/i);
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

Status EncryptedEngine::Admit(const SealedSubmission& submission,
                              bool range_ok) {
  const auto& pedersen = owner_->pedersen();
  const auto& pub = owner_->paillier_pub();
  if (PREVER_MUTATION(ENC_RANGE_PROOF_SKIP, !range_ok, false)) {
    return Status::IntegrityViolation("producer range proof invalid");
  }

  // Manager-side check 2: per regulated bound, aggregate homomorphically
  // over the public filter (group, window) INCLUDING the incoming value,
  // then demand an owner attestation tied to our own commitment product.
  const std::vector<SealedRow>& group_rows = rows_[submission.group];
  auto verify = metrics_.Phase(obs::TraceStage::kVerify);
  for (const RegulatedBound& bound : bounds_) {
    PaillierCiphertext total_v = submission.sealed.value_ct;
    PaillierCiphertext total_r = submission.sealed.rand_ct;
    PedersenCommitment total_cm = submission.sealed.commitment;
    SimTime window_start = bound.window == 0 ? 0
                           : (bound.window >= submission.timestamp
                                  ? 0
                                  : submission.timestamp - bound.window);
    for (const SealedRow& row : group_rows) {
      if (bound.window != 0 &&
          (PREVER_MUTATION(ENC_WINDOW_START_INCLUSIVE,
                           row.timestamp <= window_start,
                           row.timestamp < window_start) ||
           PREVER_MUTATION(ENC_WINDOW_END_EXCLUSIVE,
                           row.timestamp > submission.timestamp,
                           row.timestamp >= submission.timestamp))) {
        continue;
      }
      total_v = crypto::PaillierAdd(pub, total_v, row.sealed.value_ct);
      total_r = crypto::PaillierAdd(pub, total_r, row.sealed.rand_ct);
      total_cm = crypto::PedersenAdd(pedersen, total_cm,
                                     row.sealed.commitment);
    }
    Result<RangeProof> attestation =
        bound.direction == constraint::BoundDirection::kUpper
            ? owner_->AttestUpperBound(total_v, total_r, total_cm,
                                       bound.bound, bound.slack_bits)
            : owner_->AttestLowerBound(total_v, total_r, total_cm,
                                       bound.bound, bound.slack_bits);
    PREVER_RETURN_IF_ERROR(attestation.status());
    bool proof_ok =
        bound.direction == constraint::BoundDirection::kUpper
            ? crypto::VerifyUpperBound(pedersen, total_cm, *attestation,
                                       BigInt(bound.bound), bound.slack_bits)
            : crypto::VerifyLowerBound(pedersen, total_cm, *attestation,
                                       BigInt(bound.bound), bound.slack_bits);
    if (PREVER_MUTATION(ENC_ATTEST_ACCEPT, !proof_ok, false)) {
      return Status::IntegrityViolation("owner bound attestation invalid");
    }
  }
  verify.End();

  // Step 3: ledger a content commitment, then store the sealed row. The
  // ledger entry binds id/group/time + ciphertext digests, never plaintext.
  auto ledger = metrics_.Phase(obs::TraceStage::kLedgerPhase);
  BinaryWriter w;
  w.WriteString(submission.id);
  w.WriteString(submission.producer);
  w.WriteU64(submission.timestamp);
  w.WriteString(submission.group);
  w.WriteBytes(crypto::Sha256::Hash(submission.sealed.value_ct.c.ToBytes()));
  w.WriteBytes(crypto::Sha256::Hash(submission.sealed.commitment.c.ToBytes()));
  return OrderThenApply(*ordering_, w.Take(), submission.timestamp, [&] {
    rows_[submission.group].push_back(
        SealedRow{submission.group, submission.timestamp, submission.sealed});
    return Status::Ok();
  });
}

size_t EncryptedEngine::NumRows(const std::string& group) const {
  auto it = rows_.find(group);
  return it == rows_.end() ? 0 : it->second.size();
}

}  // namespace prever::core
