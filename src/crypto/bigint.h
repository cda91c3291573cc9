#ifndef PREVER_CRYPTO_BIGINT_H_
#define PREVER_CRYPTO_BIGINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace prever::crypto {

/// Arbitrary-precision signed integer, implemented from scratch (no GMP).
///
/// Representation: sign-magnitude with 32-bit limbs, least-significant limb
/// first, no trailing zero limbs (zero is an empty limb vector with positive
/// sign). 32-bit limbs keep schoolbook multiplication and Knuth-D division
/// simple and portable (products fit in uint64_t).
///
/// This class backs all public-key operations in PReVer (RSA, Paillier,
/// Pedersen commitments). It favors clarity over constant-time behavior —
/// acceptable for a research prototype, documented in DESIGN.md §6.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// From a machine integer.
  BigInt(int64_t v);  // NOLINT: deliberate implicit conversion for literals.
  BigInt(uint64_t v, bool /*unsigned_tag*/);

  static BigInt Zero() { return BigInt(); }
  static BigInt One() { return BigInt(1); }

  /// Parses base-10 (optional leading '-') or base-16 ("0x" prefix or
  /// explicit base argument).
  static Result<BigInt> FromDecimal(std::string_view s);
  static Result<BigInt> FromHex(std::string_view s);

  /// Big-endian unsigned magnitude (sign is dropped; use for crypto values
  /// which are always non-negative).
  static BigInt FromBytes(const Bytes& be);
  Bytes ToBytes() const;
  /// Big-endian, left-padded with zeros to exactly `n` bytes. Fails if the
  /// magnitude does not fit.
  Result<Bytes> ToBytesPadded(size_t n) const;

  std::string ToDecimalString() const;
  std::string ToHexString() const;

  bool IsZero() const { return limbs_.empty(); }
  bool IsNegative() const { return negative_; }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool IsEven() const { return !IsOdd(); }

  /// Number of significant bits of the magnitude (0 for zero).
  size_t BitLength() const;
  /// Bit i of the magnitude (LSB = bit 0).
  bool Bit(size_t i) const;

  /// Value as int64 if it fits, else error.
  Result<int64_t> ToInt64() const;
  /// Value as uint64 if non-negative and fits, else error.
  Result<uint64_t> ToUint64() const;

  int Compare(const BigInt& other) const;  ///< -1, 0, +1.

  BigInt operator-() const;
  BigInt operator+(const BigInt& rhs) const;
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  /// Truncated (C-style) quotient; requires rhs != 0.
  BigInt operator/(const BigInt& rhs) const;
  /// C-style remainder (sign follows dividend); requires rhs != 0.
  BigInt operator%(const BigInt& rhs) const;
  BigInt operator<<(size_t bits) const;
  BigInt operator>>(size_t bits) const;

  BigInt& operator+=(const BigInt& rhs) { return *this = *this + rhs; }
  BigInt& operator-=(const BigInt& rhs) { return *this = *this - rhs; }
  BigInt& operator*=(const BigInt& rhs) { return *this = *this * rhs; }

  bool operator==(const BigInt& rhs) const { return Compare(rhs) == 0; }
  bool operator!=(const BigInt& rhs) const { return Compare(rhs) != 0; }
  bool operator<(const BigInt& rhs) const { return Compare(rhs) < 0; }
  bool operator<=(const BigInt& rhs) const { return Compare(rhs) <= 0; }
  bool operator>(const BigInt& rhs) const { return Compare(rhs) > 0; }
  bool operator>=(const BigInt& rhs) const { return Compare(rhs) >= 0; }

  /// Euclidean (always non-negative) residue in [0, m); requires m > 0.
  BigInt Mod(const BigInt& m) const;
  /// (this + rhs) mod m, operands already reduced or not.
  BigInt AddMod(const BigInt& rhs, const BigInt& m) const;
  BigInt SubMod(const BigInt& rhs, const BigInt& m) const;
  BigInt MulMod(const BigInt& rhs, const BigInt& m) const;
  /// this^e mod m via square-and-multiply; requires m > 0, e >= 0.
  BigInt PowMod(const BigInt& e, const BigInt& m) const;

  /// Greatest common divisor of magnitudes.
  static BigInt Gcd(const BigInt& a, const BigInt& b);
  static BigInt Lcm(const BigInt& a, const BigInt& b);
  /// Modular inverse in [0, m) of any value (negative or >= m included);
  /// InvalidArgument unless m > 0 and gcd(this, m) == 1. A binary extended
  /// gcd on 64-bit limbs for an odd m; an even m swaps roles with the
  /// (then odd) operand.
  Result<BigInt> InvMod(const BigInt& m) const;

  /// Divides, returning quotient and remainder with C semantics.
  static void DivMod(const BigInt& num, const BigInt& den, BigInt* quot,
                     BigInt* rem);

  /// Internal plumbing for the Montgomery fast path (montgomery.h): the
  /// little-endian 32-bit limbs of the magnitude, and construction from
  /// them. Not part of the stable public API.
  const std::vector<uint32_t>& Limbs() const { return limbs_; }
  static BigInt FromLimbs(std::vector<uint32_t> limbs);

 private:
  void Trim();
  static int CompareMagnitude(const BigInt& a, const BigInt& b);
  static BigInt AddMagnitude(const BigInt& a, const BigInt& b);
  /// Magnitude product: schoolbook below the Karatsuba threshold, Karatsuba
  /// recursion above it (both inputs treated as non-negative).
  static BigInt MulMagnitude(const BigInt& a, const BigInt& b);
  static BigInt SchoolbookMul(const BigInt& a, const BigInt& b);
  /// Requires |a| >= |b|.
  static BigInt SubMagnitude(const BigInt& a, const BigInt& b);
  static void DivModMagnitude(const BigInt& num, const BigInt& den,
                              BigInt* quot, BigInt* rem);

  std::vector<uint32_t> limbs_;
  bool negative_ = false;
};

}  // namespace prever::crypto

#endif  // PREVER_CRYPTO_BIGINT_H_
