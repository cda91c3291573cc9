#ifndef PREVER_CORE_FEDERATED_THRESHOLD_ENGINE_H_
#define PREVER_CORE_FEDERATED_THRESHOLD_ENGINE_H_

#include <memory>
#include <vector>

#include "constraint/constraint.h"
#include "constraint/linear.h"
#include "constraint/verifier.h"
#include "core/engine.h"
#include "core/engine_metrics.h"
#include "core/federated_mpc_engine.h"  // FederatedPlatform.
#include "core/ordering.h"
#include "core/regulation_forms.h"
#include "crypto/elgamal.h"

namespace prever::core {

/// RC2, dealer-free decentralized path — the direct answer to the Separ
/// shortcoming §5 names ("requires a centralized trusted third party
/// authority"): the platforms run a one-time distributed key generation
/// (threshold ElGamal, n-of-n); per regulation check, each platform
/// encrypts its private local aggregate under the JOINT key, the
/// ciphertexts are summed homomorphically, and all platforms jointly
/// decrypt the TOTAL.
///
/// Privacy compared to the MPC engine: no trusted dealer and no
/// correlated-randomness setup per check, but the *total* (not just the
/// compliance bit) is revealed to the platforms. That is the classic
/// secure-aggregation privacy level; DESIGN.md's engine table records the
/// trade — individual contributions stay hidden either way.
class FederatedThresholdEngine : public UpdateEngine {
 public:
  FederatedThresholdEngine(std::vector<FederatedPlatform*> platforms,
                           const constraint::ConstraintCatalog* regulations,
                           OrderingService* ordering,
                           const crypto::PedersenParams& params,
                           uint64_t seed);

  Status SubmitVia(size_t platform_index, const Update& update);
  Status SubmitUpdate(const Update& update) override {
    return SubmitVia(0, update);
  }

  EngineStats stats() const override { return metrics_.Snapshot(); }
  const char* name() const override { return "federated-threshold-rc2"; }

  /// Joint decryptions performed (each reveals one aggregate total).
  uint64_t totals_opened() const { return totals_opened_; }

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
  /// plus incrementally cached local aggregates for the encrypted totals.
  std::vector<std::unique_ptr<constraint::CompiledVerifier>> platform_verifiers_;
  RegulationForms regulation_forms_;
  crypto::Drbg drbg_;
  crypto::ThresholdElGamal keys_;
  uint64_t totals_opened_ = 0;
  EngineMetrics metrics_{"federated-threshold-rc2"};
};

}  // namespace prever::core

#endif  // PREVER_CORE_FEDERATED_THRESHOLD_ENGINE_H_
