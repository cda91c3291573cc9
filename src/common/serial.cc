#include "common/serial.h"

namespace prever {

void BinaryWriter::WriteU16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void BinaryWriter::WriteU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void BinaryWriter::WriteU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void BinaryWriter::WriteBytes(const Bytes& b) {
  WriteU32(static_cast<uint32_t>(b.size()));
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void BinaryWriter::WriteString(std::string_view s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

Status BinaryReader::Need(size_t n) {
  if (remaining() < n) {
    return Status::Corruption("truncated buffer: need " + std::to_string(n) +
                              " bytes, have " + std::to_string(remaining()));
  }
  return Status::Ok();
}

Result<uint8_t> BinaryReader::ReadU8() {
  PREVER_RETURN_IF_ERROR(Need(1));
  return data_[pos_++];
}

Result<uint16_t> BinaryReader::ReadU16() {
  PREVER_RETURN_IF_ERROR(Need(2));
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<uint32_t> BinaryReader::ReadU32() {
  PREVER_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> BinaryReader::ReadU64() {
  PREVER_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int64_t> BinaryReader::ReadI64() {
  PREVER_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<bool> BinaryReader::ReadBool() {
  PREVER_ASSIGN_OR_RETURN(uint8_t v, ReadU8());
  if (v > 1) return Status::Corruption("invalid bool encoding");
  return v == 1;
}

Result<Bytes> BinaryReader::ReadBytes() {
  PREVER_ASSIGN_OR_RETURN(uint32_t n, ReadU32());
  return ReadRaw(n);
}

Result<std::string> BinaryReader::ReadString() {
  PREVER_ASSIGN_OR_RETURN(Bytes b, ReadBytes());
  return std::string(b.begin(), b.end());
}

Result<Bytes> BinaryReader::ReadRaw(size_t n) {
  PREVER_RETURN_IF_ERROR(Need(n));
  Bytes out(data_.begin() + static_cast<long>(pos_),
            data_.begin() + static_cast<long>(pos_ + n));
  pos_ += n;
  return out;
}

}  // namespace prever
