#include "core/federated_threshold_engine.h"

namespace prever::core {

namespace {
// Aggregates PReVer regulates are small (hours, counts, cents-scale); the
// dlog recovery bound caps the scan.
constexpr int64_t kMaxAggregate = 1 << 20;
}  // namespace

FederatedThresholdEngine::FederatedThresholdEngine(
    std::vector<FederatedPlatform*> platforms,
    const constraint::ConstraintCatalog* regulations,
    OrderingService* ordering, const crypto::PedersenParams& params,
    uint64_t seed)
    : platforms_(std::move(platforms)),
      regulations_(regulations),
      ordering_(ordering),
      platform_verifiers_(MakePlatformVerifiers(platforms_)),
      regulation_forms_(regulations),
      drbg_(seed),
      keys_(params, platforms_.size(), drbg_) {}

Status FederatedThresholdEngine::CheckRegulation(size_t index,
                                                 size_t platform_index,
                                                 const Update& update) {
  const constraint::Constraint& regulation =
      regulations_->constraints()[index];
  PREVER_ASSIGN_OR_RETURN(const auto* forms,
                          regulation_forms_.ForConstraint(index));
  for (const constraint::LinearBoundForm& form : *forms) {
    // Each platform: local aggregate over its private database, plus the
    // incoming update's terms at the submitting platform.
    auto total_ct = keys_.Encrypt(0, drbg_);
    PREVER_RETURN_IF_ERROR(total_ct.status());
    for (size_t i = 0; i < platforms_.size(); ++i) {
      constraint::EvalContext ctx{&platforms_[i]->db, &update.fields,
                                  update.timestamp};
      PREVER_ASSIGN_OR_RETURN(
          int64_t local,
          platform_verifiers_[i]->EvaluateAggregate(*form.aggregate, ctx));
      if (i == platform_index) {
        for (const std::string& field : form.update_terms) {
          auto it = update.fields.find(field);
          if (it == update.fields.end()) {
            return Status::InvalidArgument("update lacks field '" + field +
                                           "'");
          }
          PREVER_ASSIGN_OR_RETURN(int64_t v, it->second.AsInt64());
          local += v;
        }
      }
      if (local < 0 || local > kMaxAggregate) {
        return Status::NotSupported(
            "local aggregate outside the threshold engine's domain");
      }
      // Platform i encrypts its contribution under the joint key and
      // publishes only the ciphertext.
      PREVER_ASSIGN_OR_RETURN(crypto::ElGamalCiphertext ct,
                              keys_.Encrypt(local, drbg_));
      *total_ct = crypto::ThresholdElGamal::Add(keys_.params(), *total_ct, ct);
    }
    // Joint decryption of the total: every platform contributes a partial.
    std::vector<crypto::BigInt> partials;
    partials.reserve(platforms_.size());
    for (size_t i = 0; i < platforms_.size(); ++i) {
      PREVER_ASSIGN_OR_RETURN(crypto::BigInt partial,
                              keys_.PartialDecrypt(i, *total_ct));
      partials.push_back(std::move(partial));
    }
    PREVER_ASSIGN_OR_RETURN(
        int64_t total,
        keys_.Combine(*total_ct, partials,
                      kMaxAggregate * static_cast<int64_t>(platforms_.size())));
    ++totals_opened_;

    bool satisfied = form.direction == constraint::BoundDirection::kUpper
                         ? total <= form.bound
                         : total >= form.bound;
    if (!satisfied) {
      return Status::ConstraintViolation("update violates regulation '" +
                                         regulation.name + "'");
    }
  }
  return Status::Ok();
}

Status FederatedThresholdEngine::SubmitVia(size_t platform_index,
                                           const Update& update) {
  return metrics_.Submit([&]() -> Status {
    PREVER_ASSIGN_OR_RETURN(FederatedPlatform* home,
                            PlatformAt(platforms_, platform_index));
    auto verify = metrics_.Phase(obs::TraceStage::kVerify);
    constraint::EvalContext local_ctx{&home->db, &update.fields,
                                      update.timestamp};
    PREVER_RETURN_IF_ERROR(
        platform_verifiers_[platform_index]->VerifyAll(local_ctx));
    verify.End();
    // The regulation check is dominated by threshold ElGamal work.
    auto elgamal = metrics_.Phase(obs::TraceStage::kCrypto);
    for (size_t r = 0; r < regulations_->size(); ++r) {
      PREVER_RETURN_IF_ERROR(CheckRegulation(r, platform_index, update));
    }
    elgamal.End();
    auto ledger = metrics_.Phase(obs::TraceStage::kLedgerPhase);
    PREVER_RETURN_IF_ERROR(home->db.Check(update.mutation));
    return OrderThenApply(*ordering_, DigestEntry(*home, update),
                          update.timestamp,
                          [&] { return home->db.Apply(update.mutation); });
  });
}

}  // namespace prever::core
