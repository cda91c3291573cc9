#ifndef PREVER_CONSTRAINT_VERIFIER_H_
#define PREVER_CONSTRAINT_VERIFIER_H_

#include <atomic>
#include <map>
#include <memory>
#include <shared_mutex>
#include <vector>

#include "constraint/agg_cache.h"
#include "constraint/constraint.h"
#include "constraint/program.h"
#include "storage/database.h"

namespace prever::constraint {

/// Catalog-level compiled verification: every constraint is lowered to
/// bytecode once (at first use, and again whenever the catalog's revision
/// moves), aggregate subexpressions are served from the incremental
/// AggregateCache, and the tree-walking interpreter remains both the
/// fallback for shapes the compiler rejects and the differential oracle.
///
/// Verdicts, error codes, and messages are interpreter-identical — engines
/// swap `catalog->CheckAll(ctx)` for `verifier.VerifyAll(ctx)` with no
/// observable behavior change except throughput.
///
/// Concurrency: VerifyAll first tries a read-only pass under a shared lock
/// (bytecode + warm cache state, O(1) amortized per update); anything that
/// needs maintenance — first compile, catalog drift, cold or stale caches,
/// window-cursor movement — retries under the exclusive lock. The commit
/// observer (registered against `db` when given) applies insert deltas and
/// epoch-invalidates on rollback-shaped mutations, also exclusively.
class CompiledVerifier {
 public:
  struct Stats {
    uint64_t compiled_constraints = 0;     ///< On the bytecode path.
    uint64_t interpreted_constraints = 0;  ///< Compiler rejected the shape.
    uint64_t recompiles = 0;               ///< Catalog revisions compiled.
    uint64_t fast_path_verifies = 0;       ///< VerifyAll under shared lock.
    uint64_t slow_path_verifies = 0;       ///< VerifyAll needing the writer.
    AggregateCache::Stats agg;
  };

  /// `catalog` must outlive the verifier. `db` may be null (no incremental
  /// deltas; caches invalidate through table mod-count staleness instead) —
  /// when given, a commit observer keeps the aggregate caches in sync and
  /// is removed again in the destructor.
  CompiledVerifier(const ConstraintCatalog* catalog, storage::Database* db);
  ~CompiledVerifier();

  CompiledVerifier(const CompiledVerifier&) = delete;
  CompiledVerifier& operator=(const CompiledVerifier&) = delete;

  /// Drop-in replacement for ConstraintCatalog::CheckAll.
  Status VerifyAll(const EvalContext& ctx);

  /// Drop-in replacement for constraint::EvaluateAggregate, with the spec
  /// compiled once (keyed by the expression's identity) and served from the
  /// aggregate cache. `agg` must stay alive as long as the verifier; engines
  /// satisfy this by extracting linear forms from catalog-owned constraints
  /// once and reusing them.
  Result<int64_t> EvaluateAggregate(const Expr& agg, const EvalContext& ctx);

  Stats stats() const;

 private:
  struct Entry {
    const Constraint* constraint = nullptr;
    /// compiled.ok == false → interpreter.
    CompiledConstraint compiled;
  };
  struct AdhocAgg {
    CompiledConstraint compiled;
    bool usable = false;  ///< Single-spec aggregate the cache can serve.
  };

  /// Recompiles against the current catalog revision. Caller holds mu_
  /// exclusively. Invalidates every AggregateSpec pointer, so the aggregate
  /// cache is reset alongside.
  void RefreshLocked();
  /// Read-only fast path; returns false when maintenance is needed.
  bool TryVerifyAllShared(const EvalContext& ctx, Status* out) const;

  const ConstraintCatalog* catalog_;
  storage::Database* db_;
  uint64_t observer_id_ = 0;

  mutable std::shared_mutex mu_;
  uint64_t compiled_revision_ = 0;
  bool compiled_once_ = false;
  std::vector<Entry> entries_;
  std::map<const Expr*, std::unique_ptr<AdhocAgg>> adhoc_;
  AggregateCache agg_cache_;
  Stats stats_;
  mutable std::atomic<uint64_t> fast_path_verifies_{0};
};

}  // namespace prever::constraint

#endif  // PREVER_CONSTRAINT_VERIFIER_H_
