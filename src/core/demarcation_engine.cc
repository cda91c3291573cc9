#include "core/demarcation_engine.h"

namespace prever::core {

DemarcationEngine::DemarcationEngine(
    std::vector<FederatedPlatform*> platforms,
    const constraint::ConstraintCatalog* regulations,
    OrderingService* ordering)
    : platforms_(std::move(platforms)),
      regulations_(regulations),
      ordering_(ordering),
      internal_verifiers_(MakePlatformVerifiers(platforms_)),
      regulation_forms_(regulations) {}

Status DemarcationEngine::ValidateRegulations() const {
  for (const constraint::Constraint& c : regulations_->constraints()) {
    auto forms = constraint::ExtractLinearConjunction(*c.expr);
    if (!forms.ok()) {
      return Status::NotSupported("regulation '" + c.name +
                                  "' is not linear: " +
                                  forms.status().message());
    }
    for (const auto& form : *forms) {
      if (form.direction != constraint::BoundDirection::kUpper) {
        return Status::NotSupported(
            "demarcation handles upper bounds only (regulation '" + c.name +
            "')");
      }
    }
  }
  return Status::Ok();
}

Status DemarcationEngine::Check(size_t regulation_index, size_t form_index,
                                const constraint::LinearBoundForm& form,
                                size_t platform_index, const Update& update,
                                Plan* plan) const {
  // The demarcated quantity is the sum of the update's terms; the group is
  // the identity the WHERE filter pins (we key budgets on the update's own
  // filter fields — e.g. the worker id — by hashing all string fields).
  int64_t cost = 0;
  for (const std::string& field : form.update_terms) {
    auto it = update.fields.find(field);
    if (it == update.fields.end()) {
      return Status::InvalidArgument("update lacks field '" + field + "'");
    }
    PREVER_ASSIGN_OR_RETURN(int64_t v, it->second.AsInt64());
    if (v < 0) return Status::NotSupported("negative terms unsupported");
    cost += v;
  }
  std::string group;
  for (const auto& [name, value] : update.fields) {
    if (value.is_string()) group += *value.AsString() + "|";
  }
  uint64_t bucket =
      form.aggregate->window == 0 ? 0 : update.timestamp / form.aggregate->window;

  // The plan works on a copy of the budget, taken on first touch.
  BudgetKey key{regulation_index, form_index, group, bucket};
  auto [it, first_touch] = plan->budgets.try_emplace(key);
  BudgetState& state = it->second;
  auto committed = first_touch ? budgets_.find(key) : budgets_.end();
  if (committed != budgets_.end()) {
    state = committed->second;
  } else if (first_touch) {
    // Fresh (group, bucket): split the bound evenly into local limits.
    const auto n = static_cast<int64_t>(platforms_.size());
    state.consumed.assign(platforms_.size(), 0);
    state.limit.assign(platforms_.size(), form.bound / n);
    state.limit[0] += form.bound % n;  // Remainder goes to platform 0.
  }
  int64_t& consumed = state.consumed[platform_index];
  int64_t& limit = state.limit[platform_index];

  if (consumed + cost <= limit) {
    consumed += cost;  // Zero-communication fast path.
    ++plan->local_admissions;
    return Status::Ok();
  }
  // Limit-transfer negotiation: pull slack from peers (one message round).
  ++plan->transfers;
  int64_t need = consumed + cost - limit;
  for (size_t peer = 0; peer < platforms_.size() && need > 0; ++peer) {
    if (peer == platform_index) continue;
    int64_t slack = state.limit[peer] - state.consumed[peer];
    if (slack <= 0) continue;
    int64_t take = std::min(slack, need);
    state.limit[peer] -= take;
    limit += take;
    need -= take;
  }
  if (consumed + cost <= limit) {
    consumed += cost;
    return Status::Ok();
  }
  return Status::ConstraintViolation(
      "update exceeds the global bound (no transferable slack left)");
}

Status DemarcationEngine::SubmitVia(size_t platform_index,
                                    const Update& update) {
  return metrics_.Submit([&]() -> Status {
    PREVER_ASSIGN_OR_RETURN(FederatedPlatform* home,
                            PlatformAt(platforms_, platform_index));
    auto verify = metrics_.Phase(obs::TraceStage::kVerify);
    constraint::EvalContext local_ctx{&home->db, &update.fields,
                                      update.timestamp};
    PREVER_RETURN_IF_ERROR(
        internal_verifiers_[platform_index]->VerifyAll(local_ctx));
    Plan plan;
    for (size_t r = 0; r < regulations_->size(); ++r) {
      PREVER_ASSIGN_OR_RETURN(const auto* forms,
                              regulation_forms_.ForConstraint(r));
      for (size_t f = 0; f < forms->size(); ++f) {
        PREVER_RETURN_IF_ERROR(
            Check(r, f, (*forms)[f], platform_index, update, &plan));
      }
    }
    verify.End();
    auto ledger = metrics_.Phase(obs::TraceStage::kLedgerPhase);
    PREVER_RETURN_IF_ERROR(home->db.Check(update.mutation));
    return OrderThenApply(*ordering_, DigestEntry(*home, update),
                          update.timestamp, [&] {
                            for (auto& [key, state] : plan.budgets) {
                              budgets_[key] = std::move(state);
                            }
                            transfers_ += plan.transfers;
                            local_admissions_ += plan.local_admissions;
                            return home->db.Apply(update.mutation);
                          });
  });
}

}  // namespace prever::core
