#ifndef PREVER_RECOVERY_CHECKPOINT_H_
#define PREVER_RECOVERY_CHECKPOINT_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "ledger/ledger_db.h"

namespace prever::recovery {

/// Durable checkpoints for crash recovery (DESIGN.md "Crash recovery & state
/// transfer"). A checkpoint file is a storage::WriteAheadLog record file:
///
///   record 0      manifest: magic/version, checkpoint id, consensus
///                 sequence number, ledger size + Merkle root
///   records 1..n  one encoded LedgerEntry per ledger entry
///   last          opaque app/protocol state (consensus-layer blob)
///
/// Save goes through WriteAheadLog::Rewrite ("<file>.tmp", flush, close,
/// atomic rename): a crash mid-write leaves either the previous checkpoint
/// set intact or a torn .tmp that the loader never considers. A damaged
/// *final* file (flipped byte, truncated tail, trailing junk) is Corruption,
/// not a clean prefix; LoadLatest quarantines it (rename to *.quarantined)
/// and falls back to the next-newest intact checkpoint — the commit-journal
/// suffix replay covers the difference with a longer replay.
///
/// A checkpoint holding only a ledger is also the durable ledger image an
/// auditor reloads after a restart: loading re-checks its Merkle root.
struct CheckpointManifest {
  uint64_t checkpoint_id = 0;  ///< Monotone per store; newest intact wins.
  uint64_t consensus_seq = 0;  ///< Consensus position the state covers.
  uint64_t ledger_size = 0;
  Bytes ledger_root;           ///< Merkle root at ledger_size.
};

/// A loaded checkpoint. The ledger has been rebuilt from the embedded
/// journal and its recomputed Merkle root compared against the manifest.
struct Checkpoint {
  CheckpointManifest manifest;
  ledger::LedgerDb ledger;
  Bytes app_state;  ///< Opaque consensus/app blob.
};

/// What Save captures. The ledger is mandatory; the rest defaults to empty.
struct CheckpointContents {
  const ledger::LedgerDb* ledger = nullptr;
  uint64_t consensus_seq = 0;
  Bytes app_state;
};

/// One directory of checkpoint files ("ckpt-<16-hex-id>.ckpt"). Not
/// thread-safe; each replica owns its store exclusively (the concurrency
/// test drives distinct stores from multiple threads).
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string dir);

  /// Creates the directory (parents included); call once before Save.
  Status Init();

  /// Writes a new checkpoint atomically; returns its id.
  Result<uint64_t> Save(const CheckpointContents& contents);

  /// Loads the newest intact checkpoint. Corrupt finals are quarantined
  /// (renamed *.quarantined) and skipped; NotFound when no intact
  /// checkpoint exists (callers fall back to full journal replay).
  Result<Checkpoint> LoadLatest();

  /// Deletes all but the newest `keep` checkpoint files; returns bytes
  /// reclaimed.
  uint64_t GarbageCollect(size_t keep);

  /// Final checkpoint files, ascending by id (no .tmp / .quarantined).
  std::vector<std::string> ListFiles() const;

  uint64_t quarantined() const { return quarantined_; }
  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  uint64_t next_id_ = 1;
  uint64_t quarantined_ = 0;
};

/// Extends a checkpoint-restored ledger with the suffix of a commit journal:
/// records are encoded LedgerEntry values; entries already covered by the
/// checkpoint (sequence below the current size) are skipped, the rest must
/// extend contiguously. Returns the number of entries appended.
Result<uint64_t> ReplayLedgerSuffix(const std::vector<Bytes>& records,
                                    ledger::LedgerDb* ledger);

}  // namespace prever::recovery

#endif  // PREVER_RECOVERY_CHECKPOINT_H_
