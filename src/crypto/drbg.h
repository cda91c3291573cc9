#ifndef PREVER_CRYPTO_DRBG_H_
#define PREVER_CRYPTO_DRBG_H_

#include "common/bytes.h"
#include "crypto/bigint.h"

namespace prever::crypto {

/// Deterministic random bit generator in the style of NIST HMAC-DRBG
/// (SP 800-90A, simplified: no personalization/reseed counters). All key and
/// nonce generation in PReVer draws from a Drbg so experiments are seeded
/// and reproducible.
///
/// THREADING CONTRACT: a Drbg is single-threaded state — every Generate
/// advances (key, V), and concurrent calls would both corrupt the state and
/// destroy the determinism the simulations rely on. Never share an instance
/// across threads; give each worker its own child via Fork(). Forking draws
/// 32 bytes from the parent, so child streams are independent of each other
/// and of the parent's subsequent output, and the fork order (not thread
/// scheduling) determines every stream.
class Drbg {
 public:
  /// Seeds from arbitrary entropy bytes.
  explicit Drbg(const Bytes& seed);
  /// Convenience: seeds from a 64-bit test seed.
  explicit Drbg(uint64_t seed);

  /// Generates `n` pseudorandom bytes.
  Bytes Generate(size_t n);

  /// Mixes additional entropy into the state.
  void Reseed(const Bytes& entropy);

  /// Derives an independent child generator (seeded from 32 bytes of this
  /// generator's output). The deterministic way to hand randomness to a
  /// worker thread — see the threading contract above.
  Drbg Fork();

  /// Uniform BigInt with exactly `bits` bits (top bit set) — used for prime
  /// candidate generation.
  BigInt RandomBits(size_t bits);

  /// Uniform BigInt in [0, bound) via rejection sampling; bound must be > 0.
  BigInt RandomBelow(const BigInt& bound);

  /// Uniform BigInt in [1, bound); bound must be > 1.
  BigInt RandomNonZeroBelow(const BigInt& bound);

 private:
  void Update(const Bytes& provided);

  Bytes key_;  // 32 bytes.
  Bytes v_;    // 32 bytes.
};

}  // namespace prever::crypto

#endif  // PREVER_CRYPTO_DRBG_H_
