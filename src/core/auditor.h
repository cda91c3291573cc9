#ifndef PREVER_CORE_AUDITOR_H_
#define PREVER_CORE_AUDITOR_H_

#include <vector>

#include "common/status.h"
#include "ledger/ledger_db.h"

namespace prever::core {

/// RC4: "enable any participant to verify the integrity of stored data with
/// sound privacy guarantees." The auditor needs no privileged access — only
/// digests, proofs, and (for full audits) the journal itself, which in
/// PReVer engines contains hashes and ciphertexts, not plaintext.
class IntegrityAuditor {
 public:
  /// Full single-ledger audit: journal vs. Merkle tree, dense sequences.
  static Status AuditLedger(const ledger::LedgerDb& ledger);

  /// Client-side check that a manager's new digest extends the previously
  /// observed one (detects history rewriting between two audits).
  static Status CheckExtension(const ledger::LedgerDigest& previous,
                               const ledger::LedgerDigest& current,
                               const ledger::ConsistencyProof& proof);

  /// Federated check: all replicas' ledgers must agree on the committed
  /// prefix (divergence ⇒ consensus-layer compromise). Compares digests at
  /// the shortest replica's size.
  static Status CheckReplicaAgreement(
      const std::vector<const ledger::LedgerDb*>& replicas);
};

}  // namespace prever::core

#endif  // PREVER_CORE_AUDITOR_H_
