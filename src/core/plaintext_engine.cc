#include "core/plaintext_engine.h"

namespace prever::core {

PlaintextEngine::PlaintextEngine(storage::Database* db,
                                 const constraint::ConstraintCatalog* catalog,
                                 OrderingService* ordering)
    : db_(db), ordering_(ordering), verifier_(*catalog, *db) {}

Status PlaintextEngine::SubmitUpdate(const Update& update) {
  return metrics_.Submit([&]() -> Status {
    // Step 2 (Fig. 2): verify against every constraint and regulation.
    constraint::EvalContext ctx{db_, &update.fields, update.timestamp};
    auto verify = metrics_.Phase(obs::TraceStage::kVerify);
    PREVER_RETURN_IF_ERROR(verifier_.VerifyAll(ctx));
    verify.End();
    // Step 3: record on the immutable integrity layer (RC4), then
    // incorporate into the database.
    auto ledger = metrics_.Phase(obs::TraceStage::kLedgerPhase);
    PREVER_RETURN_IF_ERROR(db_->Check(update.mutation));
    return OrderThenApply(*ordering_, update.Encode(), update.timestamp,
                          [&] { return db_->Apply(update.mutation); });
  });
}

}  // namespace prever::core
