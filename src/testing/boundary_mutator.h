#ifndef PREVER_TESTING_BOUNDARY_MUTATOR_H_
#define PREVER_TESTING_BOUNDARY_MUTATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "storage/database.h"

namespace prever::simtest {

/// One planned update from the boundary mutator: who, how much, when, and
/// what the regulation reference must decide. `kind` tags the boundary the
/// update targets so a divergence report says *which* edge broke.
struct BoundaryPlan {
  const char* kind = "";
  std::string worker;
  size_t worker_index = 0;  ///< Index into the constructor's worker list.
  int64_t hours = 0;
  SimTime at = 0;
  /// Reference decision predicted from the current table state by an
  /// independent reimplementation of the windowed-sum rule. A mismatch
  /// against the plaintext engine means either the mutator's model or the
  /// constraint evaluator is wrong — both are bugs worth a loud failure.
  bool expect_accept = false;
};

/// Data-aware workload mutator for the engine differential. Instead of
/// drawing hours blindly, each call scans the reference database's current
/// per-worker aggregate state and emits the update that lands *exactly* on a
/// regulation boundary:
///
///   - `window_first`   row in the very first slot of the period,
///   - `cap_minus_one`  running sum to bound-1 (last accepting value - 1),
///   - `cap_exact`      running sum to exactly the bound,
///   - `cap_over`       bound+1 by one hour — the first rejecting value,
///   - `zero_at_cap`    a zero-hours update while sitting at the bound,
///   - `dup_ts`         a second update at the *same* timestamp (exercises
///                      the window's inclusive `ts == now` end),
///   - `single_over`    one update individually exceeding the bound,
///   - `window_last`    probe in the last slot of the period/window.
///
/// Random sweeps hit these edges rarely (a uniform draw lands on "exactly
/// bound" with probability ~1/bound per update); the mutator hits every one
/// of them every run, which is what makes off-by-one mutants in the window
/// and comparison logic die in seconds instead of surviving a 200-seed
/// sweep.
class BoundaryMutator {
 public:
  /// `workers` are the producer names to target (>= 2 recommended);
  /// `period_start` is the first valid timestamp, and every emitted
  /// timestamp stays within [period_start, period_start + window).
  BoundaryMutator(int64_t bound, SimTime window, SimTime period_start,
                  std::vector<std::string> workers, uint64_t seed);

  bool Done() const { return step_ >= script_.size(); }

  /// Plans the next update from `db`'s current "worklog" table contents.
  /// Call exactly once per submission, after the previous plan was applied
  /// (or rejected) by the reference engine.
  BoundaryPlan Next(const storage::Database& db);

 private:
  struct Step {
    const char* kind;
    size_t worker;
  };

  /// Sum of accepted hours for `worker` whose timestamps fall inside the
  /// half-open window (now - window, now]. Deliberately NOT implemented via
  /// constraint::Evaluate — this is the independent oracle.
  int64_t WindowSum(const storage::Database& db, const std::string& worker,
                    SimTime now) const;

  int64_t bound_;
  SimTime window_;
  SimTime period_start_;
  std::vector<std::string> workers_;
  Rng rng_;
  std::vector<Step> script_;
  size_t step_ = 0;
  SimTime now_;
  SimTime time_step_;
  SimTime prev_at_ = 0;
};

}  // namespace prever::simtest

#endif  // PREVER_TESTING_BOUNDARY_MUTATOR_H_
