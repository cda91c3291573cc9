#include "ledger/ledger_db.h"

#include "common/serial.h"
#include "mutate/mutation.h"

namespace prever::ledger {

Bytes LedgerEntry::Encode() const {
  BinaryWriter w;
  w.WriteU64(sequence);
  w.WriteU64(timestamp);
  w.WriteBytes(payload);
  return w.Take();
}

Result<LedgerEntry> LedgerEntry::Decode(const Bytes& data) {
  BinaryReader r(data);
  LedgerEntry e;
  PREVER_ASSIGN_OR_RETURN(e.sequence, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(e.timestamp, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(e.payload, r.ReadBytes());
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in ledger entry");
  return e;
}

uint64_t LedgerDb::Append(const Bytes& payload, SimTime timestamp) {
  LedgerEntry entry;
  entry.sequence = entries_.size();
  entry.timestamp = timestamp;
  entry.payload = payload;
  tree_.Append(entry.Encode());
  entries_.push_back(std::move(entry));
  return entries_.back().sequence;
}

Result<LedgerEntry> LedgerDb::GetEntry(uint64_t sequence) const {
  if (sequence >= entries_.size()) {
    return Status::NotFound("no ledger entry " + std::to_string(sequence));
  }
  return entries_[sequence];
}

LedgerDigest LedgerDb::Digest() const {
  return LedgerDigest{entries_.size(), tree_.Root()};
}

Result<LedgerDigest> LedgerDb::DigestAt(uint64_t size) const {
  PREVER_ASSIGN_OR_RETURN(Bytes root, tree_.RootAt(size));
  return LedgerDigest{size, std::move(root)};
}

Result<InclusionProof> LedgerDb::ProveInclusion(uint64_t sequence,
                                                uint64_t tree_size) const {
  PREVER_ASSIGN_OR_RETURN(std::vector<Bytes> path,
                          tree_.InclusionProof(sequence, tree_size));
  return InclusionProof{sequence, tree_size, std::move(path)};
}

Result<ConsistencyProof> LedgerDb::ProveConsistency(uint64_t old_size,
                                                    uint64_t new_size) const {
  PREVER_ASSIGN_OR_RETURN(std::vector<Bytes> path,
                          tree_.ConsistencyProof(old_size, new_size));
  return ConsistencyProof{old_size, new_size, std::move(path)};
}

bool LedgerDb::VerifyInclusion(const LedgerEntry& entry,
                               const InclusionProof& proof,
                               const LedgerDigest& digest) {
  if (PREVER_MUTATION(
          LEDGER_PROOF_SIZE_SKIP,
          proof.tree_size != digest.size || proof.sequence != entry.sequence,
          false)) {
    return false;
  }
  return crypto::MerkleTree::VerifyInclusion(entry.Encode(), proof.sequence,
                                             proof.tree_size, proof.path,
                                             digest.root);
}

bool LedgerDb::VerifyConsistency(const LedgerDigest& old_digest,
                                 const LedgerDigest& new_digest,
                                 const ConsistencyProof& proof) {
  if (proof.old_size != old_digest.size || proof.new_size != new_digest.size) {
    return false;
  }
  return crypto::MerkleTree::VerifyConsistency(
      proof.old_size, proof.new_size, old_digest.root, new_digest.root,
      proof.path);
}

Status LedgerDb::Audit() const {
  crypto::MerkleTree recomputed;
  for (const LedgerEntry& entry : entries_) {
    recomputed.Append(entry.Encode());
  }
  if (PREVER_MUTATION(LEDGER_AUDIT_ROOT_SKIP,
                      recomputed.Root() != tree_.Root(), false)) {
    return Status::IntegrityViolation(
        "journal does not match Merkle tree: stored entries were mutated");
  }
  // Sequence numbers must be dense and ordered.
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (PREVER_MUTATION(LEDGER_AUDIT_SEQUENCE_SKIP, entries_[i].sequence != i,
                        false)) {
      return Status::IntegrityViolation("ledger sequence gap at " +
                                        std::to_string(i));
    }
  }
  return Status::Ok();
}

std::vector<Bytes> LedgerDb::EncodeEntries() const {
  std::vector<Bytes> records;
  records.reserve(entries_.size());
  for (const LedgerEntry& entry : entries_) records.push_back(entry.Encode());
  return records;
}

Result<LedgerDb> LedgerDb::FromRecords(const std::vector<Bytes>& records) {
  LedgerDb ledger;
  for (const Bytes& record : records) {
    PREVER_ASSIGN_OR_RETURN(LedgerEntry entry, LedgerEntry::Decode(record));
    if (entry.sequence != ledger.entries_.size()) {
      return Status::IntegrityViolation(
          "ledger records have a sequence gap at " +
          std::to_string(ledger.entries_.size()));
    }
    ledger.tree_.Append(entry.Encode());
    ledger.entries_.push_back(std::move(entry));
  }
  return ledger;
}

Status LedgerDb::TamperWithEntryForTest(uint64_t sequence,
                                        const Bytes& new_payload) {
  if (sequence >= entries_.size()) {
    return Status::NotFound("no ledger entry " + std::to_string(sequence));
  }
  entries_[sequence].payload = new_payload;
  return Status::Ok();
}

Status LedgerDb::RenumberEntryForTest(uint64_t sequence,
                                      uint64_t new_sequence) {
  if (sequence >= entries_.size()) {
    return Status::NotFound("no ledger entry " + std::to_string(sequence));
  }
  entries_[sequence].sequence = new_sequence;
  crypto::MerkleTree rebuilt;
  for (const LedgerEntry& entry : entries_) rebuilt.Append(entry.Encode());
  tree_ = std::move(rebuilt);
  return Status::Ok();
}

}  // namespace prever::ledger
