#include "recovery/journal.h"

#include <filesystem>
#include <system_error>

#include "common/serial.h"
#include "obs/registry.h"

namespace prever::recovery {

namespace {

obs::Counter& JournalReclaimedCounter() {
  static obs::Counter* c = obs::Registry::Default().GetCounter(
      "prever_recovery_log_bytes_reclaimed");
  return *c;
}

}  // namespace

Bytes JournalEvent::Encode() const {
  BinaryWriter w;
  w.WriteU64(position);
  w.WriteU64(batch_id);
  w.WriteU32(static_cast<uint32_t>(entries.size()));
  for (const Bytes& e : entries) w.WriteBytes(e);
  return w.Take();
}

Result<JournalEvent> JournalEvent::Decode(const Bytes& record) {
  BinaryReader r(record);
  JournalEvent event;
  PREVER_ASSIGN_OR_RETURN(event.position, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(event.batch_id, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  event.entries.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    PREVER_ASSIGN_OR_RETURN(Bytes e, r.ReadBytes());
    event.entries.push_back(std::move(e));
  }
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in journal event");
  return event;
}

Status CommitJournal::Open(const std::string& path) {
  path_ = path;
  return wal_.Open(path);
}

Status CommitJournal::Append(const JournalEvent& event) {
  return wal_.Append(event.Encode());
}

void CommitJournal::Close() { wal_.Close(); }

Result<uint64_t> CommitJournal::TruncateBelow(uint64_t floor) {
  PREVER_ASSIGN_OR_RETURN(std::vector<JournalEvent> events,
                          Recover(path_, nullptr));
  std::error_code ec;
  uint64_t before = 0;
  if (auto size = std::filesystem::file_size(path_, ec); !ec) before = size;

  std::vector<JournalEvent> keep;
  for (JournalEvent& e : events) {
    if (e.position > floor) keep.push_back(std::move(e));
  }
  PREVER_RETURN_IF_ERROR(Rewrite(keep));

  uint64_t after = 0;
  if (auto size = std::filesystem::file_size(path_, ec); !ec) after = size;
  uint64_t reclaimed = before > after ? before - after : 0;
  JournalReclaimedCounter().Inc(reclaimed);
  return reclaimed;
}

Status CommitJournal::Rewrite(const std::vector<JournalEvent>& events) {
  // The journal stays intact (old or new) through any crash point, and
  // stays open for appends whether or not the rewrite succeeded.
  std::vector<Bytes> records;
  records.reserve(events.size());
  for (const JournalEvent& e : events) records.push_back(e.Encode());
  wal_.Close();
  Status rewritten = storage::WriteAheadLog::Rewrite(path_, records);
  PREVER_RETURN_IF_ERROR(wal_.Open(path_));
  return rewritten;
}

Result<std::vector<JournalEvent>> CommitJournal::Recover(
    const std::string& path, bool* truncated) {
  PREVER_ASSIGN_OR_RETURN(std::vector<Bytes> records,
                          storage::WriteAheadLog::Recover(path, truncated));
  std::vector<JournalEvent> events;
  events.reserve(records.size());
  for (const Bytes& record : records) {
    PREVER_ASSIGN_OR_RETURN(JournalEvent event, JournalEvent::Decode(record));
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace prever::recovery
