#ifndef PREVER_CORE_DEMARCATION_ENGINE_H_
#define PREVER_CORE_DEMARCATION_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "constraint/constraint.h"
#include "constraint/linear.h"
#include "constraint/verifier.h"
#include "core/engine.h"
#include "core/engine_metrics.h"
#include "core/federated_mpc_engine.h"  // FederatedPlatform.
#include "core/ordering.h"
#include "core/regulation_forms.h"

namespace prever::core {

/// The Demarcation Protocol (Barbará & García-Molina, EDBT '92 — the
/// paper's ref [19], cited in §4 RC2 as the classical way to maintain
/// "linear arithmetic constraints in distributed database systems" in
/// un-protected contexts).
///
/// The global bound B on Σ per-platform consumption is split into local
/// limits L_i with Σ L_i = B. A platform accepts updates against its OWN
/// limit with no communication at all; only when an update would exceed
/// the local limit does it ask peers to transfer slack. This is the
/// non-private federated baseline: extremely cheap (zero messages in the
/// common case) but every platform sees the per-group consumption figures
/// it is asked to transfer — precisely the leak the RC2 crypto engines
/// exist to close. E4 quantifies the gap.
///
/// Demarcation maintains per-(group, window-bucket) budgets; sliding
/// windows are approximated by tumbling buckets of the window length
/// (consumption resets each bucket) — the classical protocol has no
/// sliding-window form, and the approximation is conservative within a
/// bucket but can admit up to 2x across a bucket boundary; DESIGN.md
/// lists this as the expressiveness cost of the baseline.
class DemarcationEngine : public UpdateEngine {
 public:
  DemarcationEngine(std::vector<FederatedPlatform*> platforms,
                    const constraint::ConstraintCatalog* regulations,
                    OrderingService* ordering);

  /// All regulations must be in linear upper-bound form.
  Status ValidateRegulations() const;

  Status SubmitVia(size_t platform_index, const Update& update);
  Status SubmitUpdate(const Update& update) override {
    return SubmitVia(0, update);
  }

  EngineStats stats() const override { return metrics_.Snapshot(); }
  const char* name() const override { return "demarcation-rc2-baseline"; }

  /// Limit-transfer negotiations of admitted updates (each costs one round
  /// of peer messages — the protocol's only communication).
  uint64_t transfers() const { return transfers_; }
  /// Updates admitted with zero communication.
  uint64_t local_admissions() const { return local_admissions_; }

  struct BudgetKey {
    size_t regulation_index;
    size_t form_index;   // Linear form within the regulation's conjunction.
    std::string group;   // Concatenated update-term key (e.g. worker id).
    uint64_t bucket;     // Tumbling-window index (0 when no window).
    bool operator<(const BudgetKey& o) const {
      return std::tie(regulation_index, form_index, group, bucket) <
             std::tie(o.regulation_index, o.form_index, o.group, o.bucket);
    }
  };

  /// Consumed units per platform for one (regulation, form, group, bucket).
  struct BudgetState {
    std::vector<int64_t> consumed;  // Per platform.
    std::vector<int64_t> limit;     // Per platform; sums to the bound.
  };

  /// Every budget an admitted update has touched.
  const std::map<BudgetKey, BudgetState>& budgets() const { return budgets_; }

 private:
  /// The budgets and counters an update leaves behind once it is ordered.
  struct Plan {
    std::map<BudgetKey, BudgetState> budgets;
    uint64_t transfers = 0;
    uint64_t local_admissions = 0;
  };

  /// Checks one form against the budgets as `plan` leaves them and records
  /// its consumption and any limit transfer there; ConstraintViolation when
  /// no transferable slack covers it.
  Status Check(size_t regulation_index, size_t form_index,
               const constraint::LinearBoundForm& form, size_t platform_index,
               const Update& update, Plan* plan) const;

  std::vector<FederatedPlatform*> platforms_;
  const constraint::ConstraintCatalog* regulations_;
  OrderingService* ordering_;
  /// One compiled verifier per platform's internal constraints + database.
  std::vector<std::unique_ptr<constraint::CompiledVerifier>> internal_verifiers_;
  RegulationForms regulation_forms_;
  std::map<BudgetKey, BudgetState> budgets_;
  uint64_t transfers_ = 0;
  uint64_t local_admissions_ = 0;
  EngineMetrics metrics_{"demarcation-rc2-baseline"};
};

}  // namespace prever::core

#endif  // PREVER_CORE_DEMARCATION_ENGINE_H_
