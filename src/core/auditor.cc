#include "core/auditor.h"

namespace prever::core {

Status IntegrityAuditor::AuditLedger(const ledger::LedgerDb& ledger) {
  return ledger.Audit();
}

Status IntegrityAuditor::CheckExtension(
    const ledger::LedgerDigest& previous, const ledger::LedgerDigest& current,
    const ledger::ConsistencyProof& proof) {
  if (current.size < previous.size) {
    return Status::IntegrityViolation(
        "ledger shrank: append-only property violated");
  }
  if (!ledger::LedgerDb::VerifyConsistency(previous, current, proof)) {
    return Status::IntegrityViolation(
        "consistency proof invalid: history was rewritten");
  }
  return Status::Ok();
}

Status IntegrityAuditor::CheckReplicaAgreement(
    const std::vector<const ledger::LedgerDb*>& replicas) {
  if (replicas.empty()) {
    return Status::InvalidArgument("no replicas to compare");
  }
  uint64_t prefix = replicas[0]->size();
  for (const ledger::LedgerDb* r : replicas) {
    prefix = std::min(prefix, r->size());
  }
  PREVER_ASSIGN_OR_RETURN(ledger::LedgerDigest reference,
                          replicas[0]->DigestAt(prefix));
  for (size_t i = 1; i < replicas.size(); ++i) {
    PREVER_ASSIGN_OR_RETURN(ledger::LedgerDigest digest,
                            replicas[i]->DigestAt(prefix));
    if (!(digest == reference)) {
      return Status::IntegrityViolation(
          "replica " + std::to_string(i) +
          " diverges from replica 0 within the committed prefix");
    }
  }
  return Status::Ok();
}

}  // namespace prever::core
