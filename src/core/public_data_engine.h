#ifndef PREVER_CORE_PUBLIC_DATA_ENGINE_H_
#define PREVER_CORE_PUBLIC_DATA_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "constraint/constraint.h"
#include "constraint/linear.h"
#include "constraint/verifier.h"
#include "core/engine.h"
#include "core/engine_metrics.h"
#include "core/ordering.h"
#include "crypto/zkp.h"
#include "pir/xor_pir.h"
#include "storage/database.h"

namespace prever::core {

/// A zero-knowledge attestation attached to an update in place of a private
/// field (§2.2: the vaccination record stays private; the manager verifies
/// a predicate about it). The commitment hides the value; the proof shows
/// it satisfies the declared bound.
struct PrivateAttestation {
  std::string field;  ///< Which private requirement this discharges.
  crypto::PedersenCommitment commitment;
  crypto::RangeProof proof;
};

/// A requirement the manager imposes on a private update field.
struct AttestationRequirement {
  std::string field;
  constraint::BoundDirection direction = constraint::BoundDirection::kLower;
  int64_t bound = 0;     ///< E.g. doses >= 2.
  size_t slack_bits = 8;
};

/// RC3 engine: public data, private updates. The manager checks
///  (a) public constraints over the public database and the update's public
///      fields — evaluated directly, and
///  (b) zero-knowledge attestations for the update's private requirements.
/// Producers can consult the public database without revealing what they
/// read via the engine's two-server XOR-PIR snapshot (the paper's PIR
/// lineage for RC3).
class PublicDataEngine : public UpdateEngine {
 public:
  PublicDataEngine(storage::Database* db,
                   const constraint::ConstraintCatalog* public_catalog,
                   std::vector<AttestationRequirement> requirements,
                   OrderingService* ordering,
                   const crypto::PedersenParams& pedersen);

  /// Producer side: build the attestation for a private value. Fails (with
  /// ConstraintViolation) when the value cannot satisfy the requirement —
  /// the producer learns it would be rejected without exposing the value.
  Result<PrivateAttestation> Attest(const AttestationRequirement& requirement,
                                    int64_t private_value, crypto::Drbg& drbg);

  /// A submission = public update + one attestation per requirement.
  struct Submission {
    Update update;  ///< fields contain ONLY public fields.
    std::vector<PrivateAttestation> attestations;
  };

  Status Submit(const Submission& submission);
  /// Base-class path: only valid when there are no attestation
  /// requirements (purely public constraints).
  Status SubmitUpdate(const Update& update) override;

  EngineStats stats() const override { return metrics_.Snapshot(); }
  const char* name() const override { return "public-data-rc3"; }

  /// Builds (or refreshes) a two-server PIR snapshot of `table`; rows are
  /// serialized to fixed-size records. Producers read through
  /// XorPirClient::Fetch against the returned servers.
  struct PirSnapshot {
    std::unique_ptr<pir::XorPirServer> server0;
    std::unique_ptr<pir::XorPirServer> server1;
    size_t record_size = 0;
  };
  Result<PirSnapshot> BuildPirSnapshot(const std::string& table,
                                       size_t record_size) const;

  const storage::Database& db() const { return *db_; }
  const std::vector<AttestationRequirement>& requirements() const {
    return requirements_;
  }

 private:
  /// Submit's body: verify (a) + (b), then ledger + apply.
  Status Admit(const Submission& submission);

  storage::Database* db_;
  std::vector<AttestationRequirement> requirements_;
  OrderingService* ordering_;
  const crypto::PedersenParams* pedersen_;
  constraint::CompiledVerifier verifier_;
  EngineMetrics metrics_{"public-data-rc3"};
};

}  // namespace prever::core

#endif  // PREVER_CORE_PUBLIC_DATA_ENGINE_H_
