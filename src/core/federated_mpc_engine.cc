#include "core/federated_mpc_engine.h"

#include "crypto/sha256.h"

namespace prever::core {

namespace {
constexpr size_t kComparisonBits = 32;
}  // namespace

Result<FederatedPlatform*> PlatformAt(
    const std::vector<FederatedPlatform*>& platforms, size_t index) {
  if (index >= platforms.size()) {
    return Status::InvalidArgument("no such platform");
  }
  return platforms[index];
}

std::vector<std::unique_ptr<constraint::CompiledVerifier>>
MakePlatformVerifiers(const std::vector<FederatedPlatform*>& platforms) {
  std::vector<std::unique_ptr<constraint::CompiledVerifier>> verifiers;
  verifiers.reserve(platforms.size());
  for (FederatedPlatform* p : platforms) {
    verifiers.push_back(std::make_unique<constraint::CompiledVerifier>(
        p->internal_constraints, p->db));
  }
  return verifiers;
}

Bytes DigestEntry(const FederatedPlatform& home, const Update& update) {
  BinaryWriter w;
  w.WriteString(home.id);
  w.WriteBytes(crypto::Sha256::Hash(update.Encode()));
  return w.Take();
}

FederatedMpcEngine::FederatedMpcEngine(
    std::vector<FederatedPlatform*> platforms,
    const constraint::ConstraintCatalog* regulations,
    OrderingService* ordering, uint64_t dealer_seed)
    : platforms_(std::move(platforms)),
      regulations_(regulations),
      ordering_(ordering),
      platform_verifiers_(MakePlatformVerifiers(platforms_)),
      regulation_forms_(regulations),
      dealer_rng_(dealer_seed) {}

Status FederatedMpcEngine::ValidateRegulations() const {
  for (const constraint::Constraint& c : regulations_->constraints()) {
    auto forms = constraint::ExtractLinearConjunction(*c.expr);
    if (!forms.ok()) {
      return Status::NotSupported(
          "regulation '" + c.name +
          "' is outside the linear bound class the MPC engine supports: " +
          forms.status().message());
    }
  }
  return Status::Ok();
}

Status FederatedMpcEngine::CheckRegulation(size_t index, size_t platform_index,
                                           const Update& update) {
  const constraint::Constraint& regulation =
      regulations_->constraints()[index];
  PREVER_ASSIGN_OR_RETURN(const auto* forms,
                          regulation_forms_.ForConstraint(index));
  for (const constraint::LinearBoundForm& form : *forms) {
    // Each platform evaluates the aggregate over ITS private database. The
    // WHERE predicate may reference update fields (e.g. worker id), which
    // are shared with the platforms for routing — the Separ model, where
    // task metadata is visible to the involved platforms but totals are not.
    std::vector<uint64_t> local_aggregates;
    local_aggregates.reserve(platforms_.size());
    for (size_t i = 0; i < platforms_.size(); ++i) {
      constraint::EvalContext ctx{&platforms_[i]->db, &update.fields,
                                  update.timestamp};
      PREVER_ASSIGN_OR_RETURN(
          int64_t local,
          platform_verifiers_[i]->EvaluateAggregate(*form.aggregate, ctx));
      if (local < 0) {
        return Status::NotSupported(
            "MPC engine requires non-negative local aggregates");
      }
      local_aggregates.push_back(static_cast<uint64_t>(local));
    }
    // The submitting platform contributes the update's own terms.
    for (const std::string& field : form.update_terms) {
      auto it = update.fields.find(field);
      if (it == update.fields.end()) {
        return Status::InvalidArgument("update lacks field '" + field + "'");
      }
      PREVER_ASSIGN_OR_RETURN(int64_t v, it->second.AsInt64());
      if (v < 0) {
        return Status::NotSupported("negative update terms not supported");
      }
      local_aggregates[platform_index] += static_cast<uint64_t>(v);
    }

    bool satisfied;
    if (form.direction == constraint::BoundDirection::kUpper) {
      if (form.bound < 0) {
        satisfied = false;  // Non-negative sums cannot meet negative bounds.
      } else {
        PREVER_ASSIGN_OR_RETURN(
            satisfied, mpc::SecureComparison::SumLessEqual(
                           local_aggregates, static_cast<uint64_t>(form.bound),
                           kComparisonBits, dealer_rng_, &transcript_));
      }
    } else {
      // sum >= bound  ⇔  NOT (sum <= bound - 1).
      if (form.bound <= 0) {
        satisfied = true;
      } else {
        PREVER_ASSIGN_OR_RETURN(
            bool below, mpc::SecureComparison::SumLessEqual(
                            local_aggregates,
                            static_cast<uint64_t>(form.bound) - 1,
                            kComparisonBits, dealer_rng_, &transcript_));
        satisfied = !below;
      }
    }
    if (!satisfied) {
      return Status::ConstraintViolation("update violates regulation '" +
                                         regulation.name + "'");
    }
  }
  return Status::Ok();
}

Status FederatedMpcEngine::SubmitVia(size_t platform_index,
                                     const Update& update) {
  return metrics_.Submit([&]() -> Status {
    PREVER_ASSIGN_OR_RETURN(FederatedPlatform* home,
                            PlatformAt(platforms_, platform_index));
    auto verify = metrics_.Phase(obs::TraceStage::kVerify);
    // Local internal constraints first (cheap, no cross-platform traffic).
    constraint::EvalContext local_ctx{&home->db, &update.fields,
                                      update.timestamp};
    PREVER_RETURN_IF_ERROR(
        platform_verifiers_[platform_index]->VerifyAll(local_ctx));
    // Global regulations via MPC across all platforms.
    for (size_t r = 0; r < regulations_->size(); ++r) {
      PREVER_RETURN_IF_ERROR(CheckRegulation(r, platform_index, update));
    }
    verify.End();
    auto ledger = metrics_.Phase(obs::TraceStage::kLedgerPhase);
    PREVER_RETURN_IF_ERROR(home->db.Check(update.mutation));
    return OrderThenApply(*ordering_, DigestEntry(*home, update),
                          update.timestamp,
                          [&] { return home->db.Apply(update.mutation); });
  });
}

}  // namespace prever::core
