#ifndef PREVER_STORAGE_WAL_H_
#define PREVER_STORAGE_WAL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace prever::storage {

/// The one record-file codec for durable state: the commit journal appends
/// through it and checkpoints are whole-file Rewrites of it. Record format
/// on disk:
///   [u32 payload_len][u32 crc32(payload)][payload bytes]
/// Recovery stops cleanly at the first torn or corrupt record (the tail may
/// be partial after a crash); anything before it is returned.
class WriteAheadLog {
 public:
  WriteAheadLog() = default;
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Opens (creating if needed) the log file for appending. A torn or
  /// corrupt tail is cut off first, so new records extend exactly the clean
  /// prefix Recover returns.
  Status Open(const std::string& path);

  bool is_open() const { return file_ != nullptr; }

  /// Appends one record and flushes it to the OS.
  Status Append(const Bytes& payload);

  /// Group commit: appends all records with ONE fwrite and ONE fflush. On
  /// disk this is byte-identical to appending them individually; recovery
  /// cannot tell the difference (a torn batch tail truncates like any other
  /// torn record).
  Status AppendBatch(const std::vector<Bytes>& payloads);

  /// Closes the file (also done by the destructor).
  void Close();

  /// Reads all intact records from a log file. A corrupt/torn tail is not an
  /// error — recovery returns the clean prefix; `truncated` (optional)
  /// reports whether a damaged tail was skipped.
  static Result<std::vector<Bytes>> Recover(const std::string& path,
                                            bool* truncated = nullptr);

  /// Atomically replaces `path` with a log holding exactly `records`:
  /// writes them into an empty "<path>.tmp", flushes and closes it, then
  /// renames it over `path`. A crash at any point leaves either the old
  /// file or the new one; on failure the tmp file is removed.
  static Status Rewrite(const std::string& path,
                        const std::vector<Bytes>& records);

 private:
  std::FILE* file_ = nullptr;
};

}  // namespace prever::storage

#endif  // PREVER_STORAGE_WAL_H_
