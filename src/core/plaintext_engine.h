#ifndef PREVER_CORE_PLAINTEXT_ENGINE_H_
#define PREVER_CORE_PLAINTEXT_ENGINE_H_

#include "constraint/constraint.h"
#include "constraint/verifier.h"
#include "core/engine.h"
#include "core/engine_metrics.h"
#include "core/ordering.h"
#include "storage/database.h"

namespace prever::core {

/// The non-private baseline (§6 asks every private solution to be compared
/// against it): the data manager sees everything — plaintext database,
/// plaintext updates, plaintext constraints. Full Fig. 2 pipeline: evaluate
/// every catalog constraint, append the update to the ordering/integrity
/// layer, apply the mutation.
class PlaintextEngine : public UpdateEngine {
 public:
  /// Non-owning pointers; all must outlive the engine.
  PlaintextEngine(storage::Database* db,
                  const constraint::ConstraintCatalog* catalog,
                  OrderingService* ordering);

  Status SubmitUpdate(const Update& update) override;
  EngineStats stats() const override { return metrics_.Snapshot(); }
  const char* name() const override { return "plaintext"; }

  const storage::Database& db() const { return *db_; }

  /// Compiled-verification counters (compiles, fast path, cache hits).
  const constraint::CompiledVerifier& verifier() const { return verifier_; }

 private:
  storage::Database* db_;
  OrderingService* ordering_;
  constraint::CompiledVerifier verifier_;
  EngineMetrics metrics_{"plaintext"};
};

}  // namespace prever::core

#endif  // PREVER_CORE_PLAINTEXT_ENGINE_H_
