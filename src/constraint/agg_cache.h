#ifndef PREVER_CONSTRAINT_AGG_CACHE_H_
#define PREVER_CONSTRAINT_AGG_CACHE_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "constraint/program.h"
#include "storage/database.h"

namespace prever::constraint {

/// Incrementally maintained aggregate state for compiled constraints.
///
/// The cacheable class is AGG(table.col [WHERE rowpred AND col = update.f]
/// [WINDOW w]): one GroupState per distinct selector value, holding
///   - all-time running COUNT/SUM/MIN/MAX (O(1) per committed insert), and
///   - for windowed aggregates, a ts-sorted entry list with a [lo, hi)
///     cursor over the half-open window (now - w, now], win_count/win_sum
///     running totals and monotonic min/max deques. Monotone `now` and
///     append-order timestamps advance the cursor in O(1) amortized; a
///     regression (time moving backwards, out-of-order insert) rebuilds the
///     cursor from the sorted entries instead of corrupting it.
///
/// One cache serves one database: deltas arrive through the owning
/// CompiledVerifier's commit observer on it. Inserts fold into the group
/// state directly; updates/upserts/deletes epoch-invalidate every spec on
/// that table (lazy rebuild on next query). Anything outside the cacheable
/// class evaluates per query through EvaluateSpecByScan, the scalar row
/// loop with the interpreter's exact semantics.
///
/// Lifetime: state is keyed by AggregateSpec address and OnCommitted
/// dereferences those keys, so every spec ever passed to Evaluate /
/// TryReadEvaluate must outlive the cache. The CompiledVerifier owns every
/// spec it passes (catalog entries and ad-hoc aggregates alike) and drops
/// them together with the cache on catalog refresh.
///
/// Not internally synchronized: the CompiledVerifier serializes mutating
/// access and uses TryReadEvaluate under a shared lock for the steady-state
/// read path.
class AggregateCache {
 public:
  struct Stats {
    uint64_t cache_hits = 0;      ///< Served from incremental state.
    uint64_t cache_builds = 0;    ///< Full-scan (re)builds of a spec cache.
    uint64_t delta_applies = 0;   ///< Committed inserts folded in.
    uint64_t invalidations = 0;   ///< Epoch invalidations (rollback path).
    uint64_t scan_evals = 0;      ///< Non-cacheable specs evaluated by scan.
  };

  /// Evaluates `spec` with full maintenance rights: binds on first use,
  /// (re)builds the group states when stale, advances window cursors.
  Result<storage::Value> Evaluate(const AggregateSpec& spec,
                                  const EvalContext& ctx);

  /// Read-only fast path (safe under a shared lock): succeeds only when the
  /// spec is bound, built, in sync with the table, and — for windowed
  /// aggregates — the cursor already sits exactly at (now - w, now].
  bool TryReadEvaluate(const AggregateSpec& spec, const EvalContext& ctx,
                       Result<storage::Value>* out) const;

  /// Commit observer: folds an insert delta into every affected spec, or
  /// epoch-invalidates on anything that is not a plain insert.
  void OnCommitted(const storage::Mutation& mutation);

  const Stats& stats() const { return stats_; }

 private:
  struct GroupState {
    FoldState all;  ///< All-time fold.
    /// (ts, value) sorted by ts; only populated for windowed specs.
    std::vector<std::pair<SimTime, int64_t>> entries;
    bool cursor_valid = false;
    SimTime cur_start = 0;
    SimTime cur_now = 0;
    size_t lo = 0, hi = 0;  ///< entries[lo, hi) is inside (cur_start, cur_now].
    int64_t win_count = 0;
    int64_t win_sum = 0;
    std::deque<size_t> min_dq, max_dq;  ///< Monotonic index deques.
  };

  struct SpecCache {
    BoundSpec bound;
    Status bind_status;     ///< Returned verbatim on every query if !ok.
    bool bound_ok = false;
    bool cacheable = false;
    bool has_group = false;  ///< Selector present (else one global group).
    size_t group_col_idx = 0;
    storage::ValueType group_col_type = storage::ValueType::kInt64;
    bool needs_value = false;
    bool built = false;
    uint64_t synced_mod = 0;  ///< Table mod_count the cache reflects.
    std::map<storage::Value, GroupState> groups;
    GroupState global;
  };

  SpecCache& GetOrBind(const AggregateSpec& spec, const storage::Schema& schema);
  Status BuildSpec(SpecCache& sc, const AggregateSpec& spec,
                   const storage::Table& table);
  /// Folds one row into a spec cache (applying the row predicate). Build
  /// scans pass is_delta=false (entries sorted once afterwards); commit
  /// deltas pass true and keep the window cursor incrementally correct.
  Status FoldRow(SpecCache& sc, const AggregateSpec& spec,
                 const storage::Row& row, bool is_delta);
  void AdvanceCursor(GroupState& g, SimTime start, SimTime now) const;
  static void PushWindowIndex(GroupState& g, size_t idx);
  Result<storage::Value> FinishGroup(const AggregateSpec& spec,
                                     const GroupState* g, SimTime start,
                                     SimTime now, bool* needs_write) const;

  std::map<const AggregateSpec*, std::unique_ptr<SpecCache>> specs_;
  Stats stats_;
};

}  // namespace prever::constraint

#endif  // PREVER_CONSTRAINT_AGG_CACHE_H_
