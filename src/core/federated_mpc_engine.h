#ifndef PREVER_CORE_FEDERATED_MPC_ENGINE_H_
#define PREVER_CORE_FEDERATED_MPC_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "constraint/constraint.h"
#include "constraint/linear.h"
#include "constraint/verifier.h"
#include "core/engine.h"
#include "core/engine_metrics.h"
#include "core/ordering.h"
#include "core/regulation_forms.h"
#include "mpc/compare.h"
#include "storage/database.h"

namespace prever::core {

/// One federated platform (data manager) in the RC2 decentralized setting:
/// it holds its own private database (plaintext locally, invisible to the
/// other platforms) plus local internal constraints.
struct FederatedPlatform {
  std::string id;
  storage::Database db;
  constraint::ConstraintCatalog internal_constraints;
};

/// The platform a SubmitVia names, or InvalidArgument("no such platform").
Result<FederatedPlatform*> PlatformAt(
    const std::vector<FederatedPlatform*>& platforms, size_t index);

/// One compiled verifier per platform over its internal constraints and
/// private database.
std::vector<std::unique_ptr<constraint::CompiledVerifier>>
MakePlatformVerifiers(const std::vector<FederatedPlatform*>& platforms);

/// The ledger entry of the digest-ledgering RC2 engines,
/// `{home id, SHA-256(update)}`: the other platforms audit existence and
/// order, never the private update body.
Bytes DigestEntry(const FederatedPlatform& home, const Update& update);

/// RC2, decentralized path: multiple mutually distrustful data managers
/// collectively verify a distributed regulation — e.g. FLSA's "total hours
/// across ALL platforms <= 40/week" — via secure multi-party computation,
/// without any platform revealing its local aggregate. The accepted update
/// executes on the submitting platform only; a content digest goes through
/// the ordering service so every platform can audit the global history.
///
/// Regulations must be in linear bound form (SUM/COUNT + update terms vs. a
/// constant); richer constraints are rejected with NotSupported — exactly
/// the expressiveness frontier §4 calls out for token/MPC mechanisms.
class FederatedMpcEngine : public UpdateEngine {
 public:
  /// `regulations` are the global (external-authority) constraints; each is
  /// compiled to linear bound form at construction. `platforms` must
  /// outlive the engine.
  FederatedMpcEngine(std::vector<FederatedPlatform*> platforms,
                     const constraint::ConstraintCatalog* regulations,
                     OrderingService* ordering, uint64_t dealer_seed);

  /// Validates that every regulation is in linear bound form.
  Status ValidateRegulations() const;

  /// Submits via platform `platform_index` (the manager the producer talks
  /// to). The base-class SubmitUpdate routes to platform 0.
  Status SubmitVia(size_t platform_index, const Update& update);
  Status SubmitUpdate(const Update& update) override {
    return SubmitVia(0, update);
  }

  EngineStats stats() const override { return metrics_.Snapshot(); }
  const char* name() const override { return "federated-mpc-rc2"; }

  const mpc::MpcTranscript& transcript() const { return transcript_; }

  /// Compiled-verification counters of platform `i`'s verifier (aggregate
  /// cache hit/delta/scan mix) — the differential harness asserts the
  /// incremental path stays engaged.
  constraint::CompiledVerifier::Stats verifier_stats(size_t i) const {
    return platform_verifiers_[i]->stats();
  }

 private:
  /// Checks regulation `index` of the catalog (forms precomputed).
  Status CheckRegulation(size_t index, size_t platform_index,
                         const Update& update);

  std::vector<FederatedPlatform*> platforms_;
  const constraint::ConstraintCatalog* regulations_;
  OrderingService* ordering_;
  /// One compiled verifier per platform: internal-constraint verification
  /// plus incrementally cached local aggregates for the MPC inputs.
  std::vector<std::unique_ptr<constraint::CompiledVerifier>> platform_verifiers_;
  RegulationForms regulation_forms_;
  Rng dealer_rng_;
  mpc::MpcTranscript transcript_;
  EngineMetrics metrics_{"federated-mpc-rc2"};
};

}  // namespace prever::core

#endif  // PREVER_CORE_FEDERATED_MPC_ENGINE_H_
