#include "constraint/verifier.h"

#include <mutex>

#include "mutate/mutation.h"
#include "obs/tracing.h"

namespace prever::constraint {

CompiledVerifier::CompiledVerifier(const ConstraintCatalog& catalog,
                                   storage::Database& db)
    : catalog_(catalog), db_(db) {
  observer_id_ = db_.AddCommitObserver(
      [this](const storage::Mutation& mutation, uint64_t /*version*/) {
        PREVER_CAUSAL_SPAN(causal_agg, obs::TraceStage::kVerifyAggUpdate);
        std::unique_lock lock(mu_);
        agg_cache_.OnCommitted(mutation);
      });
}

CompiledVerifier::~CompiledVerifier() {
  db_.RemoveCommitObserver(observer_id_);
}

Status CompiledVerifier::RefreshLocked() {
  if (compiled_once_ && compiled_revision_ == catalog_.revision()) {
    return Status::Ok();
  }
  PREVER_CAUSAL_SPAN(causal_compile, obs::TraceStage::kVerifyCompile);
  std::vector<Entry> entries;
  for (const Constraint& c : catalog_.constraints()) {
    PREVER_ASSIGN_OR_RETURN(CompiledConstraint compiled,
                            CompileConstraint(*c.expr));
    entries.push_back({&c, std::move(compiled)});
  }
  // Every AggregateSpec pointer is about to die; the cache keyed on them
  // goes with it (TryReadEvaluate is revision-gated, so readers never see
  // the stale generation).
  agg_cache_ = AggregateCache();
  adhoc_.clear();
  entries_ = std::move(entries);
  stats_.compiled_constraints = entries_.size();
  compiled_revision_ = catalog_.revision();
  compiled_once_ = true;
  ++stats_.recompiles;
  return Status::Ok();
}

namespace {

Status SameDatabase(const EvalContext& ctx, const storage::Database& db) {
  if (ctx.db != &db) {
    return Status::InvalidArgument(
        "evaluation context names a database other than the verifier's");
  }
  return Status::Ok();
}

/// Checks one constraint with aggregates resolved by `agg_fn`. An `agg_fn`
/// error (including the shared path's cache-miss signal) is returned as the
/// bytecode's error.
Status CheckConstraint(const Constraint& c, const CompiledConstraint& compiled,
                       const EvalContext& ctx, const AggFn& agg_fn) {
  PREVER_ASSIGN_OR_RETURN(RegVal r,
                          RunScalar(compiled.top, ctx, nullptr, &agg_fn));
  if (r.tag != RegVal::Tag::kBool) {
    return Status::InvalidArgument("constraint '" + c.name +
                                   "' is not boolean");
  }
  if (PREVER_MUTATION(CATALOG_IGNORE_VIOLATION, !r.b, false)) {
    return Status::ConstraintViolation("update violates constraint '" +
                                       c.name + "': " + c.expr->ToString());
  }
  return Status::Ok();
}

}  // namespace

bool CompiledVerifier::TryVerifyAllShared(const EvalContext& ctx,
                                          Status* out) const {
  std::shared_lock lock(mu_);
  if (!compiled_once_ || compiled_revision_ != catalog_.revision()) {
    return false;
  }
  for (const Entry& e : entries_) {
    bool miss = false;
    AggFn agg_fn = [&](size_t i) -> Result<storage::Value> {
      Result<storage::Value> v = Status::Internal("agg cache miss");
      if (!agg_cache_.TryReadEvaluate(*e.compiled.aggs[i], ctx, &v)) {
        miss = true;
        return Status::Internal("agg cache miss");
      }
      return v;
    };
    Status s = CheckConstraint(*e.constraint, e.compiled, ctx, agg_fn);
    if (miss) return false;  // Cache needs maintenance: retry exclusive.
    if (!s.ok()) {
      *out = s;
      return true;
    }
  }
  *out = Status::Ok();
  return true;
}

Status CompiledVerifier::VerifyAll(const EvalContext& ctx) {
  PREVER_RETURN_IF_ERROR(SameDatabase(ctx, db_));
  PREVER_CAUSAL_SPAN(causal_eval, obs::TraceStage::kVerifyEval);
  Status out;
  if (TryVerifyAllShared(ctx, &out)) {
    fast_path_verifies_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  std::unique_lock lock(mu_);
  PREVER_RETURN_IF_ERROR(RefreshLocked());
  ++stats_.slow_path_verifies;
  for (const Entry& e : entries_) {
    AggFn agg_fn = [&](size_t i) -> Result<storage::Value> {
      return agg_cache_.Evaluate(*e.compiled.aggs[i], ctx);
    };
    PREVER_RETURN_IF_ERROR(
        CheckConstraint(*e.constraint, e.compiled, ctx, agg_fn));
  }
  return Status::Ok();
}

const AggregateSpec* CompiledVerifier::FindAdhoc(const Expr& agg) const {
  for (const Adhoc& a : adhoc_) {
    if (*a.expr == agg) return a.compiled.aggs[0].get();
  }
  return nullptr;
}

Result<int64_t> CompiledVerifier::EvaluateAggregate(const Expr& agg,
                                                    const EvalContext& ctx) {
  PREVER_RETURN_IF_ERROR(SameDatabase(ctx, db_));
  if (agg.kind != ExprKind::kAggregate) {
    return Status::InvalidArgument("expression is not an aggregate");
  }
  {
    std::shared_lock lock(mu_);
    const AggregateSpec* spec = FindAdhoc(agg);
    Result<storage::Value> v = Status::Internal("agg cache miss");
    if (spec != nullptr && agg_cache_.TryReadEvaluate(*spec, ctx, &v)) {
      if (!v.ok()) return v.status();
      return v->AsInt64();
    }
  }
  std::unique_lock lock(mu_);
  const AggregateSpec* spec = FindAdhoc(agg);
  if (spec == nullptr) {
    PREVER_CAUSAL_SPAN(causal_compile, obs::TraceStage::kVerifyCompile);
    PREVER_ASSIGN_OR_RETURN(CompiledConstraint compiled,
                            CompileConstraint(agg));
    adhoc_.push_back({agg.Clone(), std::move(compiled)});
    spec = adhoc_.back().compiled.aggs[0].get();
  }
  PREVER_CAUSAL_SPAN(causal_eval, obs::TraceStage::kVerifyEval);
  PREVER_ASSIGN_OR_RETURN(storage::Value v, agg_cache_.Evaluate(*spec, ctx));
  return v.AsInt64();
}

CompiledVerifier::Stats CompiledVerifier::stats() const {
  std::shared_lock lock(mu_);
  Stats s = stats_;
  s.agg = agg_cache_.stats();
  s.fast_path_verifies = fast_path_verifies_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace prever::constraint
