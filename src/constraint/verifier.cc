#include "constraint/verifier.h"

#include <mutex>

#include "constraint/eval.h"
#include "mutate/mutation.h"
#include "obs/tracing.h"

namespace prever::constraint {

CompiledVerifier::CompiledVerifier(const ConstraintCatalog* catalog,
                                   storage::Database* db)
    : catalog_(catalog), db_(db) {
  if (db_ != nullptr) {
    observer_id_ = db_->AddCommitObserver(
        [this](const storage::Mutation& mutation, uint64_t /*version*/) {
          PREVER_CAUSAL_SPAN(causal_agg, obs::TraceStage::kVerifyAggUpdate);
          std::unique_lock lock(mu_);
          agg_cache_.OnCommitted(mutation, *db_);
        });
  }
}

CompiledVerifier::~CompiledVerifier() {
  if (db_ != nullptr) db_->RemoveCommitObserver(observer_id_);
}

void CompiledVerifier::RefreshLocked() {
  if (compiled_once_ && compiled_revision_ == catalog_->revision()) return;
  PREVER_CAUSAL_SPAN(causal_compile, obs::TraceStage::kVerifyCompile);
  // Every AggregateSpec pointer is about to die; the cache keyed on them
  // goes with it (TryReadEvaluate is revision-gated, so readers never see
  // the stale generation).
  agg_cache_ = AggregateCache();
  entries_.clear();
  adhoc_.clear();
  stats_.compiled_constraints = 0;
  stats_.interpreted_constraints = 0;
  for (const Constraint& c : catalog_->constraints()) {
    Entry e;
    e.constraint = &c;
    e.compiled = CompileConstraint(*c.expr);
    if (e.compiled.ok) {
      ++stats_.compiled_constraints;
    } else {
      ++stats_.interpreted_constraints;
    }
    entries_.push_back(std::move(e));
  }
  compiled_revision_ = catalog_->revision();
  compiled_once_ = true;
  ++stats_.recompiles;
}

namespace {

/// Checks one constraint with aggregates resolved by `agg_fn`: the
/// bytecode when `compiled` is ok, the interpreter otherwise — and also
/// when the bytecode result is not a bool, because the interpreter owns the
/// exact "value is not bool, is <type>" message (a RegVal number cannot
/// tell int64 from timestamp). An `agg_fn` error (including the shared
/// path's cache-miss signal) is returned as the bytecode's error.
Status CheckConstraint(const Constraint& c, const CompiledConstraint& compiled,
                       const EvalContext& ctx, const AggFn& agg_fn) {
  bool ok;
  if (!compiled.ok) {
    PREVER_ASSIGN_OR_RETURN(ok, EvaluateBool(*c.expr, ctx));
  } else {
    PREVER_ASSIGN_OR_RETURN(RegVal r,
                            RunScalar(compiled.top, ctx, nullptr, &agg_fn));
    if (r.tag != RegVal::Tag::kBool) {
      PREVER_ASSIGN_OR_RETURN(ok, EvaluateBool(*c.expr, ctx));
    } else {
      ok = r.b;
    }
  }
  if (PREVER_MUTATION(CATALOG_IGNORE_VIOLATION, !ok, false)) {
    return Status::ConstraintViolation("update violates constraint '" +
                                       c.name + "': " + c.expr->ToString());
  }
  return Status::Ok();
}

}  // namespace

bool CompiledVerifier::TryVerifyAllShared(const EvalContext& ctx,
                                          Status* out) const {
  std::shared_lock lock(mu_);
  if (!compiled_once_ || compiled_revision_ != catalog_->revision()) {
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
  // A foreign database (engines sharing one verifier across platforms)
  // cannot use this verifier's per-table cache state: stay stateless.
  if (db_ != nullptr && ctx.db != nullptr && ctx.db != db_) {
    return catalog_->CheckAll(ctx);
  }
  PREVER_CAUSAL_SPAN(causal_eval, obs::TraceStage::kVerifyEval);
  Status out;
  if (TryVerifyAllShared(ctx, &out)) {
    fast_path_verifies_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  std::unique_lock lock(mu_);
  RefreshLocked();
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

Result<int64_t> CompiledVerifier::EvaluateAggregate(const Expr& agg,
                                                    const EvalContext& ctx) {
  if ((db_ != nullptr && ctx.db != nullptr && ctx.db != db_) ||
      agg.kind != ExprKind::kAggregate) {
    return constraint::EvaluateAggregate(agg, ctx);
  }
  {
    std::shared_lock lock(mu_);
    auto it = adhoc_.find(&agg);
    if (it != adhoc_.end()) {
      if (!it->second->usable) {
        lock.unlock();
        return constraint::EvaluateAggregate(agg, ctx);
      }
      Result<storage::Value> v = Status::Internal("agg cache miss");
      if (agg_cache_.TryReadEvaluate(*it->second->compiled.aggs[0], ctx, &v)) {
        if (!v.ok()) return v.status();
        return v->AsInt64();
      }
    }
  }
  std::unique_lock lock(mu_);
  auto& up = adhoc_[&agg];
  if (!up) {
    PREVER_CAUSAL_SPAN(causal_compile, obs::TraceStage::kVerifyCompile);
    up = std::make_unique<AdhocAgg>();
    up->compiled = CompileConstraint(agg);
    // A lone top-level aggregate always lowers to exactly one spec.
    up->usable = up->compiled.ok && up->compiled.aggs.size() == 1;
  }
  if (!up->usable) return constraint::EvaluateAggregate(agg, ctx);
  PREVER_CAUSAL_SPAN(causal_eval, obs::TraceStage::kVerifyEval);
  auto v = agg_cache_.Evaluate(*up->compiled.aggs[0], ctx);
  if (!v.ok()) return v.status();
  return v->AsInt64();
}

CompiledVerifier::Stats CompiledVerifier::stats() const {
  std::shared_lock lock(mu_);
  Stats s = stats_;
  s.agg = agg_cache_.stats();
  s.fast_path_verifies = fast_path_verifies_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace prever::constraint
