#include "storage/wal.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "common/crc32.h"
#include "mutate/mutation.h"
#include "obs/tracing.h"

namespace prever::storage {

namespace {

constexpr uint32_t kMaxRecord = 64u << 20;  // Sanity bound: 64 MiB.

void PutU32(uint32_t v, Bytes* out) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

WriteAheadLog::~WriteAheadLog() { Close(); }

Status WriteAheadLog::Open(const std::string& path) {
  Close();
  // Appending after a torn tail would hide every new record behind the
  // garbage (Recover stops there), so cut the file back to its clean prefix.
  bool truncated = false;
  PREVER_ASSIGN_OR_RETURN(std::vector<Bytes> records,
                          Recover(path, &truncated));
  if (truncated) {
    uintmax_t clean = 0;
    for (const Bytes& r : records) clean += 8 + r.size();
    std::error_code ec;
    std::filesystem::resize_file(path, clean, ec);
    if (ec) {
      return Status::Internal("cannot cut torn WAL tail: " + path + ": " +
                              ec.message());
    }
  }
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Internal("cannot open WAL file: " + path);
  }
  return Status::Ok();
}

Status WriteAheadLog::Append(const Bytes& payload) {
  return AppendBatch({payload});
}

Status WriteAheadLog::AppendBatch(const std::vector<Bytes>& payloads) {
  if (file_ == nullptr) return Status::Internal("WAL not open");
  obs::TraceSpan causal_wal(obs::TraceStage::kWalAppend, payloads.size());
  size_t total = 0;
  for (const Bytes& p : payloads) total += 8 + p.size();
  Bytes buffer;
  buffer.reserve(total);
  for (const Bytes& p : payloads) {
    PutU32(static_cast<uint32_t>(p.size()), &buffer);
    PutU32(Crc32(p), &buffer);
    buffer.insert(buffer.end(), p.begin(), p.end());
  }
  if (!buffer.empty() &&
      std::fwrite(buffer.data(), 1, buffer.size(), file_) != buffer.size()) {
    return Status::Internal("WAL write failed");
  }
  if (std::fflush(file_) != 0) return Status::Internal("WAL flush failed");
  return Status::Ok();
}

void WriteAheadLog::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

Result<std::vector<Bytes>> WriteAheadLog::Recover(const std::string& path,
                                                  bool* truncated) {
  if (truncated != nullptr) *truncated = false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    // A missing log means an empty history, not an error: first boot.
    return std::vector<Bytes>{};
  }
  std::vector<Bytes> records;
  bool damaged = false;
  for (;;) {
    uint8_t header[8];
    size_t got = std::fread(header, 1, 8, f);
    if (got == 0) break;  // Clean EOF.
    uint32_t len = got == 8 ? GetU32(header) : 0;
    Bytes payload(len <= kMaxRecord ? len : 0);
    // Torn header, oversized length, torn payload or CRC mismatch: stop at
    // the last good prefix.
    damaged = got < 8 || len > kMaxRecord ||
              std::fread(payload.data(), 1, len, f) != len ||
              PREVER_MUTATION(RECOVERY_CRC_CHECK_SKIP,
                              Crc32(payload) != GetU32(header + 4), false);
    if (damaged) break;
    records.push_back(std::move(payload));
  }
  std::fclose(f);
  if (truncated != nullptr) *truncated = damaged;
  return records;
}

Status WriteAheadLog::Rewrite(const std::string& path,
                              const std::vector<Bytes>& records) {
  const std::string tmp = path + ".tmp";
  WriteAheadLog log;
  log.file_ = std::fopen(tmp.c_str(), "wb");
  if (log.file_ == nullptr) return Status::Internal("cannot open " + tmp);
  Status status = log.AppendBatch(records);
  if (std::fclose(std::exchange(log.file_, nullptr)) != 0 && status.ok()) {
    status = Status::Internal("close failed: " + tmp);
  }
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Status::Internal("rename failed: " + path);
  }
  if (!status.ok()) std::remove(tmp.c_str());
  return status;
}

}  // namespace prever::storage
