#ifndef PREVER_CRYPTO_SHA256_H_
#define PREVER_CRYPTO_SHA256_H_

#include <cstdint>

#include "common/bytes.h"

namespace prever::crypto {

/// Incremental SHA-256 (FIPS 180-4), with no external dependency. Blocks are
/// compressed with the CPU's SHA instructions where it has them and in plain
/// C++ otherwise (crypto/sha256_internal.h); the digest is the same.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;

  Sha256();

  /// Absorbs more input.
  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }

  /// Finalizes and returns the 32-byte digest. The object must not be
  /// updated afterwards.
  Bytes Finish();
  /// Finish into `out`, which must hold kDigestSize bytes.
  void Finish(uint8_t* out);

  /// One-shot convenience.
  static Bytes Hash(const Bytes& data);
  static Bytes Hash(std::string_view data);

 private:
  static constexpr size_t kBlockSize = 64;

  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[kBlockSize];
  size_t buffer_len_ = 0;
};

}  // namespace prever::crypto

#endif  // PREVER_CRYPTO_SHA256_H_
