#ifndef PREVER_LEDGER_LEDGER_DB_H_
#define PREVER_LEDGER_LEDGER_DB_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "crypto/merkle.h"

namespace prever::ledger {

/// One journal entry of the centralized ledger database (QLDB/LedgerDB
/// style, the paper's RC4 infrastructure for the single-database setting).
struct LedgerEntry {
  uint64_t sequence = 0;
  SimTime timestamp = 0;
  Bytes payload;

  /// Canonical encoding that is hashed into the Merkle tree.
  Bytes Encode() const;
  static Result<LedgerEntry> Decode(const Bytes& data);
};

/// Compact commitment to a ledger state; published by the data manager and
/// checked by any participant (RC4: "enable any participant to verify the
/// integrity of stored data").
struct LedgerDigest {
  uint64_t size = 0;
  Bytes root;

  bool operator==(const LedgerDigest& o) const {
    return size == o.size && root == o.root;
  }
};

/// Proof that a specific entry is included under a digest.
struct InclusionProof {
  uint64_t sequence = 0;
  uint64_t tree_size = 0;
  std::vector<Bytes> path;
};

/// Proof that one digest's ledger is an append-only extension of another's.
struct ConsistencyProof {
  uint64_t old_size = 0;
  uint64_t new_size = 0;
  std::vector<Bytes> path;
};

/// Append-only verifiable ledger: immutable journal + incremental Merkle
/// tree. Immutability prevents tampering; verifiability lets authorized
/// participants audit the state (§4 RC4).
class LedgerDb {
 public:
  LedgerDb() = default;

  /// Appends a payload; returns its sequence number.
  uint64_t Append(const Bytes& payload, SimTime timestamp);

  uint64_t size() const { return entries_.size(); }
  Result<LedgerEntry> GetEntry(uint64_t sequence) const;

  /// Current digest (size + Merkle root).
  LedgerDigest Digest() const;
  /// Digest as of an earlier size.
  Result<LedgerDigest> DigestAt(uint64_t size) const;

  /// Inclusion proof for `sequence` under the digest at `tree_size`.
  Result<InclusionProof> ProveInclusion(uint64_t sequence,
                                        uint64_t tree_size) const;
  /// Consistency proof between two historic digests.
  Result<ConsistencyProof> ProveConsistency(uint64_t old_size,
                                            uint64_t new_size) const;

  /// Client-side checks (no ledger access needed beyond the proof).
  static bool VerifyInclusion(const LedgerEntry& entry,
                              const InclusionProof& proof,
                              const LedgerDigest& digest);
  static bool VerifyConsistency(const LedgerDigest& old_digest,
                                const LedgerDigest& new_digest,
                                const ConsistencyProof& proof);

  /// Full audit: recomputes the Merkle root from the journal and compares to
  /// the incremental tree. IntegrityViolation if the journal was mutated
  /// behind the tree's back (simulated tamper in tests).
  Status Audit() const;

  /// TEST ONLY: mutates a stored entry payload in place, simulating a
  /// malicious data manager rewriting history.
  Status TamperWithEntryForTest(uint64_t sequence, const Bytes& new_payload);

  /// TEST ONLY: rewrites a stored entry's sequence number AND rebuilds the
  /// Merkle tree from the tampered journal, simulating a data manager that
  /// renumbers history and recommits to it. The root comparison in Audit()
  /// then passes; only the dense-sequence check can flag the tamper.
  Status RenumberEntryForTest(uint64_t sequence, uint64_t new_sequence);

  /// Canonical encodings of all entries in sequence order — the durable
  /// ledger image embedded in checkpoints (src/recovery/) and
  /// state-transfer blobs.
  std::vector<Bytes> EncodeEntries() const;

  /// Rebuilds a ledger from encoded entries (the restore half of
  /// EncodeEntries). Entries must decode and be dense from sequence 0;
  /// the Merkle tree is rebuilt, so callers can compare the resulting
  /// Digest().root against a manifest's recorded root.
  static Result<LedgerDb> FromRecords(const std::vector<Bytes>& records);

 private:
  std::vector<LedgerEntry> entries_;
  crypto::MerkleTree tree_;
};

}  // namespace prever::ledger

#endif  // PREVER_LEDGER_LEDGER_DB_H_
