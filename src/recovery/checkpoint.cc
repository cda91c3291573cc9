#include "recovery/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/serial.h"
#include "mutate/mutation.h"
#include "obs/registry.h"
#include "obs/tracing.h"
#include "storage/wal.h"

namespace prever::recovery {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kCheckpointMagic = 0x50525643;  // "PRVC".
constexpr uint32_t kCheckpointFormat = 2;
constexpr char kFilePrefix[] = "ckpt-";
constexpr char kFileSuffix[] = ".ckpt";

obs::Counter& SavesCounter() {
  return *obs::Registry::Default().GetCounter(
      "prever_recovery_checkpoint_saves");
}
obs::Counter& LoadsCounter() {
  return *obs::Registry::Default().GetCounter(
      "prever_recovery_checkpoint_loads");
}
obs::Counter& QuarantineCounter() {
  return *obs::Registry::Default().GetCounter(
      "prever_recovery_checkpoints_quarantined");
}
obs::Counter& ReclaimedCounter() {
  return *obs::Registry::Default().GetCounter(
      "prever_recovery_log_bytes_reclaimed");
}
obs::Counter& ReplayedCounter() {
  return *obs::Registry::Default().GetCounter(
      "prever_recovery_replayed_entries");
}

std::string FileNameFor(uint64_t id) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(id));
  return std::string(kFilePrefix) + buf + kFileSuffix;
}

/// Parses "ckpt-<16 hex>.ckpt"; nullopt-style via ok flag.
bool ParseFileId(const std::string& name, uint64_t* id) {
  const std::string prefix = kFilePrefix;
  const std::string suffix = kFileSuffix;
  if (name.size() != prefix.size() + 16 + suffix.size()) return false;
  if (name.compare(0, prefix.size(), prefix) != 0) return false;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = prefix.size(); i < prefix.size() + 16; ++i) {
    char c = name[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = 10 + (c - 'a');
    else return false;
    v = (v << 4) | digit;
  }
  *id = v;
  return true;
}

Bytes EncodeManifest(const CheckpointManifest& m) {
  BinaryWriter w;
  w.WriteU32(kCheckpointMagic);
  w.WriteU32(kCheckpointFormat);
  w.WriteU64(m.checkpoint_id);
  w.WriteU64(m.consensus_seq);
  w.WriteU64(m.ledger_size);
  w.WriteBytes(m.ledger_root);
  return w.Take();
}

Result<CheckpointManifest> DecodeManifest(const Bytes& data) {
  BinaryReader r(data);
  PREVER_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kCheckpointMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  PREVER_ASSIGN_OR_RETURN(uint32_t format, r.ReadU32());
  if (format != kCheckpointFormat) {
    return Status::Corruption("unknown checkpoint format " +
                              std::to_string(format));
  }
  CheckpointManifest m;
  PREVER_ASSIGN_OR_RETURN(m.checkpoint_id, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(m.consensus_seq, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(m.ledger_size, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(m.ledger_root, r.ReadBytes());
  if (!r.AtEnd()) return Status::Corruption("trailing bytes in manifest");
  return m;
}

Result<Checkpoint> ParseCheckpointFile(const std::string& path) {
  // Unlike a journal's clean-prefix recovery, ANY damage makes the whole
  // checkpoint unusable: the file was renamed into place only after a full
  // flush, so damage means corruption, not an interrupted append.
  bool damaged = false;
  PREVER_ASSIGN_OR_RETURN(std::vector<Bytes> records,
                          storage::WriteAheadLog::Recover(path, &damaged));
  if (damaged) return Status::Corruption("damaged record in " + path);
  if (records.empty()) return Status::Corruption("empty checkpoint file");
  PREVER_ASSIGN_OR_RETURN(CheckpointManifest manifest,
                          DecodeManifest(records[0]));
  // Fixed layout: manifest, ledger entries, app state.
  if (records.size() != 1 + manifest.ledger_size + 1) {
    return Status::Corruption("checkpoint record count mismatch");
  }
  std::vector<Bytes> entry_records(
      records.begin() + 1, records.begin() + 1 + manifest.ledger_size);
  PREVER_ASSIGN_OR_RETURN(ledger::LedgerDb ledger,
                          ledger::LedgerDb::FromRecords(entry_records));
  // The manifest's root commits to the ledger state; recompute and compare
  // so a checkpoint whose journal and manifest disagree (bit rot the CRC
  // happened to miss, or a buggy writer) is rejected rather than trusted.
  if (PREVER_MUTATION(RECOVERY_ROOT_CHECK_SKIP,
                      ledger.Digest().root != manifest.ledger_root, false)) {
    return Status::IntegrityViolation(
        "checkpoint Merkle root does not match recomputed ledger root");
  }
  Checkpoint ckpt;
  ckpt.manifest = std::move(manifest);
  ckpt.ledger = std::move(ledger);
  ckpt.app_state = std::move(records.back());
  return ckpt;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {}

Status CheckpointStore::Init() {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return Status::Internal("cannot create checkpoint dir " + dir_ + ": " +
                            ec.message());
  }
  return Status::Ok();
}

std::vector<std::string> CheckpointStore::ListFiles() const {
  std::vector<std::pair<uint64_t, std::string>> found;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    uint64_t id = 0;
    if (ParseFileId(name, &id)) found.emplace_back(id, std::move(name));
  }
  std::sort(found.begin(), found.end());
  std::vector<std::string> names;
  names.reserve(found.size());
  for (auto& [id, name] : found) names.push_back(std::move(name));
  return names;
}

Result<uint64_t> CheckpointStore::Save(const CheckpointContents& contents) {
  if (contents.ledger == nullptr) {
    return Status::InvalidArgument("checkpoint needs a ledger");
  }
  uint64_t id = next_id_;
  for (const std::string& name : ListFiles()) {
    uint64_t existing = 0;
    if (ParseFileId(name, &existing) && existing >= id) id = existing + 1;
  }

  CheckpointManifest manifest;
  manifest.checkpoint_id = id;
  manifest.consensus_seq = contents.consensus_seq;
  manifest.ledger_size = contents.ledger->size();
  manifest.ledger_root = contents.ledger->Digest().root;

  std::vector<Bytes> records;
  records.reserve(manifest.ledger_size + 2);
  records.push_back(EncodeManifest(manifest));
  for (Bytes& entry : contents.ledger->EncodeEntries()) {
    records.push_back(std::move(entry));
  }
  records.push_back(contents.app_state);
  PREVER_RETURN_IF_ERROR(
      storage::WriteAheadLog::Rewrite(dir_ + "/" + FileNameFor(id), records));
  next_id_ = id + 1;
  SavesCounter().Inc();
  return id;
}

Result<Checkpoint> CheckpointStore::LoadLatest() {
  PREVER_CAUSAL_SPAN(causal_load, obs::TraceStage::kRecoverLoad);
  std::vector<std::string> files = ListFiles();
  // Newest first: a later checkpoint covers a longer prefix, so falling back
  // to an older one is safe (longer journal replay) while loading a stale
  // one as if it were the newest silently rewinds acknowledged state.
  if (PREVER_MUTATION(RECOVERY_STALE_CHECKPOINT_ACCEPT, true, false)) {
    std::reverse(files.begin(), files.end());
  }
  for (const std::string& name : files) {
    std::string path = dir_ + "/" + name;
    Result<Checkpoint> parsed = ParseCheckpointFile(path);
    if (parsed.ok()) {
      LoadsCounter().Inc();
      return parsed;
    }
    // Quarantine, never delete: keep the corrupt bytes for forensics while
    // guaranteeing this file is never considered again.
    std::string quarantine = path + ".quarantined";
    std::rename(path.c_str(), quarantine.c_str());
    ++quarantined_;
    QuarantineCounter().Inc();
  }
  return Status::NotFound("no intact checkpoint in " + dir_);
}

uint64_t CheckpointStore::GarbageCollect(size_t keep) {
  std::vector<std::string> files = ListFiles();
  uint64_t reclaimed = 0;
  size_t deletable = files.size() > keep ? files.size() - keep : 0;
  for (size_t i = 0; i < deletable; ++i) {
    std::string path = dir_ + "/" + files[i];
    std::error_code ec;
    uint64_t size = fs::file_size(path, ec);
    if (!ec && fs::remove(path, ec) && !ec) reclaimed += size;
  }
  if (reclaimed > 0) ReclaimedCounter().Inc(reclaimed);
  return reclaimed;
}

Result<uint64_t> ReplayLedgerSuffix(const std::vector<Bytes>& records,
                                    ledger::LedgerDb* ledger) {
  PREVER_CAUSAL_SPAN(causal_replay, obs::TraceStage::kRecoverReplay);
  uint64_t appended = 0;
  for (const Bytes& record : records) {
    PREVER_ASSIGN_OR_RETURN(ledger::LedgerEntry entry,
                            ledger::LedgerEntry::Decode(record));
    // Entries the checkpoint already covers are skipped, NOT re-appended:
    // the journal always starts at sequence 0 of its epoch while the
    // checkpoint may cover an arbitrary prefix of it.
    if (PREVER_MUTATION(RECOVERY_REPLAY_OFF_BY_ONE,
                        entry.sequence < ledger->size(),
                        entry.sequence <= ledger->size())) {
      continue;
    }
    if (entry.sequence != ledger->size()) {
      return Status::Corruption("journal replay gap at sequence " +
                                std::to_string(ledger->size()));
    }
    ledger->Append(entry.payload, entry.timestamp);
    ++appended;
  }
  if (appended > 0) ReplayedCounter().Inc(appended);
  return appended;
}

}  // namespace prever::recovery
