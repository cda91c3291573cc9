#ifndef PREVER_CONSTRAINT_VERIFIER_H_
#define PREVER_CONSTRAINT_VERIFIER_H_

#include <atomic>
#include <shared_mutex>
#include <vector>

#include "constraint/agg_cache.h"
#include "constraint/constraint.h"
#include "constraint/program.h"
#include "storage/database.h"

namespace prever::constraint {

/// Catalog-level compiled verification over one database: every constraint
/// is lowered to bytecode once (at first use, and again whenever the
/// catalog's revision moves) and aggregate subexpressions are served from
/// the incremental AggregateCache. The bytecode is the only evaluator — the
/// catalog admits only constraints that compile — and verdicts and status
/// codes match ConstraintCatalog::CheckAll, the interpreter kept as the
/// differential oracle.
///
/// Concurrency: VerifyAll first tries a read-only pass under a shared lock
/// (bytecode + warm cache state, O(1) amortized per update); anything that
/// needs maintenance — first compile, catalog drift, cold or stale caches,
/// window-cursor movement — retries under the exclusive lock. The commit
/// observer registered against the database applies insert deltas and
/// epoch-invalidates on rollback-shaped mutations, also exclusively.
class CompiledVerifier {
 public:
  struct Stats {
    uint64_t compiled_constraints = 0;  ///< Catalog entries compiled.
    uint64_t recompiles = 0;            ///< Catalog revisions compiled.
    uint64_t fast_path_verifies = 0;    ///< VerifyAll under shared lock.
    uint64_t slow_path_verifies = 0;    ///< VerifyAll needing the writer.
    AggregateCache::Stats agg;
  };

  /// `catalog` and `db` must outlive the verifier. A commit observer on
  /// `db` keeps the aggregate caches in sync; the destructor removes it.
  CompiledVerifier(const ConstraintCatalog& catalog, storage::Database& db);
  ~CompiledVerifier();

  CompiledVerifier(const CompiledVerifier&) = delete;
  CompiledVerifier& operator=(const CompiledVerifier&) = delete;

  /// Checks every catalog constraint: OK, ConstraintViolation naming the
  /// first failed constraint, or the evaluation error. A context that names
  /// another database is InvalidArgument.
  Status VerifyAll(const EvalContext& ctx);

  /// Evaluates one aggregate (an AGG node, InvalidArgument otherwise) to
  /// its int64 value, served from the aggregate cache. The verifier keeps
  /// its own copy of `agg` and the spec compiled from it, found again by
  /// structural equality, so the caller's expression may die at any time.
  Result<int64_t> EvaluateAggregate(const Expr& agg, const EvalContext& ctx);

  Stats stats() const;

 private:
  struct Entry {
    const Constraint* constraint = nullptr;
    CompiledConstraint compiled;
  };
  /// A lone aggregate (always exactly one spec) and the expression it was
  /// compiled from.
  struct Adhoc {
    ExprPtr expr;
    CompiledConstraint compiled;
  };

  /// Recompiles against the current catalog revision. Caller holds mu_
  /// exclusively. Invalidates every AggregateSpec pointer, so the aggregate
  /// cache and the ad-hoc aggregates are reset alongside.
  Status RefreshLocked();
  /// Read-only fast path; returns false when maintenance is needed.
  bool TryVerifyAllShared(const EvalContext& ctx, Status* out) const;
  /// The ad-hoc spec compiled from an expression equal to `agg`, or null.
  /// Caller holds mu_.
  const AggregateSpec* FindAdhoc(const Expr& agg) const;

  const ConstraintCatalog& catalog_;
  storage::Database& db_;
  uint64_t observer_id_ = 0;

  mutable std::shared_mutex mu_;
  uint64_t compiled_revision_ = 0;
  bool compiled_once_ = false;
  std::vector<Entry> entries_;
  std::vector<Adhoc> adhoc_;
  AggregateCache agg_cache_;
  Stats stats_;
  mutable std::atomic<uint64_t> fast_path_verifies_{0};
};

}  // namespace prever::constraint

#endif  // PREVER_CONSTRAINT_VERIFIER_H_
