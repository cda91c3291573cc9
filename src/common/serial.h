#ifndef PREVER_COMMON_SERIAL_H_
#define PREVER_COMMON_SERIAL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/status.h"

namespace prever {

/// Little-endian binary writer for deterministic canonical encodings.
/// All multi-byte integers are fixed-width little-endian; variable-size
/// payloads are length-prefixed with a u32. Canonical encodings are hashed
/// and signed, so writers must be deterministic.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteU8(uint8_t v) { buf_.push_back(v); }
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  /// Length-prefixed byte string.
  void WriteBytes(const Bytes& b);
  /// Length-prefixed UTF-8 string.
  void WriteString(std::string_view s);

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }

 private:
  Bytes buf_;
};

/// Matching reader; every accessor validates remaining length.
class BinaryReader {
 public:
  explicit BinaryReader(const Bytes& data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<bool> ReadBool();
  Result<Bytes> ReadBytes();
  Result<std::string> ReadString();
  /// Reads exactly `n` raw bytes.
  Result<Bytes> ReadRaw(size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n);

  const Bytes& data_;
  size_t pos_ = 0;
};

}  // namespace prever

#endif  // PREVER_COMMON_SERIAL_H_
