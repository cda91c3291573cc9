#ifndef PREVER_RECOVERY_JOURNAL_H_
#define PREVER_RECOVERY_JOURNAL_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "storage/wal.h"

namespace prever::recovery {

/// One durably journaled commit event: a consensus position, the batch it
/// carried, and the ledger entries the commit appended (encoded LedgerEntry
/// values, ready for ReplayLedgerSuffix).
struct JournalEvent {
  uint64_t position = 0;  ///< Consensus sequence / log index of the commit.
  uint64_t batch_id = 0;  ///< Pipeline batch the commit delivered.
  std::vector<Bytes> entries;

  Bytes Encode() const;
  static Result<JournalEvent> Decode(const Bytes& record);
};

/// Per-replica durable commit journal layered on the WAL's CRC32 framing
/// (one WAL record per event). Recovery = checkpoint + the journal suffix
/// above the checkpoint's consensus sequence; TruncateBelow garbage-collects
/// the prefix a newer checkpoint covers.
class CommitJournal {
 public:
  CommitJournal() = default;

  /// Opens (creating if needed) the journal for appending.
  Status Open(const std::string& path);

  bool is_open() const { return wal_.is_open(); }

  /// Durably appends one commit event (fwrite + flush, torn-tail safe).
  Status Append(const JournalEvent& event);

  void Close();

  /// Rewrites the journal keeping only events with position > floor.
  /// Returns bytes reclaimed.
  Result<uint64_t> TruncateBelow(uint64_t floor);

  /// Replaces the journal with exactly `events` (WriteAheadLog::Rewrite),
  /// then reopens it for appends, also when the rewrite fails.
  Status Rewrite(const std::vector<JournalEvent>& events);

  /// Decodes all intact events; a torn tail yields the clean prefix and
  /// sets `truncated`. A missing file is an empty journal.
  static Result<std::vector<JournalEvent>> Recover(const std::string& path,
                                                   bool* truncated = nullptr);

 private:
  storage::WriteAheadLog wal_;
  std::string path_;
};

}  // namespace prever::recovery

#endif  // PREVER_RECOVERY_JOURNAL_H_
