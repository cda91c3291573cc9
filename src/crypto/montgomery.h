#ifndef PREVER_CRYPTO_MONTGOMERY_H_
#define PREVER_CRYPTO_MONTGOMERY_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "crypto/bigint.h"

namespace prever::crypto {

/// Montgomery-form modular arithmetic for a fixed odd modulus.
///
/// Internally the context repacks BigInt's 32-bit limbs into 64-bit limbs
/// and runs CIOS (coarsely integrated operand scanning) with unsigned
/// __int128 accumulation, which roughly quarters the inner-loop multiply
/// count versus the former 32-bit kernel. One context construction costs a
/// division (R^2 mod n); every subsequent modular multiplication avoids
/// division entirely. PowMod uses sliding-window exponentiation over
/// precomputed odd powers instead of bit-at-a-time square-and-multiply.
///
/// BigInt::PowMod routes through a process-wide per-modulus cache of these
/// contexts (see Shared) for odd moduli; the class is public for callers
/// with long-lived moduli (Paillier n^2, RSA n, Pedersen p) who want to
/// hold the context — or a FixedBaseTable — directly.
class MontgomeryContext {
 public:
  /// Raw little-endian 64-bit limb vector of a Montgomery-domain residue,
  /// always exactly `limbs64()` wide. Exposed so FixedBaseTable and hot
  /// loops can stay in the packed domain without BigInt round-trips.
  using Limbs = std::vector<uint64_t>;

  /// Fails unless modulus is odd and > 1.
  static Result<MontgomeryContext> Create(const BigInt& modulus);

  /// Process-wide cached context for `modulus` (thread-safe). Repeated
  /// exponentiations mod the same value — Paillier n^2, Pedersen p, RSA n —
  /// pay the R^2-division setup once instead of per call.
  static Result<std::shared_ptr<const MontgomeryContext>> Shared(
      const BigInt& modulus);

  const BigInt& modulus() const { return n_; }
  size_t limbs64() const { return k_; }

  /// a * R mod n (entering the Montgomery domain); requires 0 <= a < n.
  BigInt ToMontgomery(const BigInt& a) const;
  /// a * R^-1 mod n (leaving the domain).
  BigInt FromMontgomery(const BigInt& a_mont) const;

  /// Montgomery product of two domain values (a*b*R^-1 mod n).
  BigInt MulMont(const BigInt& a_mont, const BigInt& b_mont) const;

  /// base^exp mod n with ordinary-domain inputs and output.
  /// Requires exp >= 0.
  BigInt PowMod(const BigInt& base, const BigInt& exp) const;

  /// Packed-domain primitives (Montgomery residues as raw 64-bit limbs).
  Limbs PackMont(const BigInt& a) const;      ///< Ordinary -> domain limbs.
  BigInt UnpackMont(const Limbs& a) const;    ///< Domain limbs -> ordinary.
  Limbs OneMont() const;                      ///< Montgomery form of 1.
  /// out = a * b * R^-1 mod n; `out` may alias `a` or `b`.
  void MulMontLimbs(const Limbs& a, const Limbs& b, Limbs* out) const;
  /// Packed-domain exponentiation: base_mont^exp (result in the domain).
  Limbs PowMont(const Limbs& base_mont, const BigInt& exp) const;
  /// Packed-domain multi-exponentiation: prod_i bases_mont[i]^exps[i].
  /// Interleaved sliding windows (Straus): every base keeps its own odd-power
  /// table, but all share one squaring chain as long as the widest exponent,
  /// so n exponentiations cost one chain plus their window products.
  /// Requires equal lengths and exps[i] >= 0.
  Limbs MultiPowMont(const std::vector<Limbs>& bases_mont,
                     const std::vector<BigInt>& exps) const;

  /// Jacobi symbol (a / n) in {-1, 0, 1} of a k-limb value a (any value
  /// below 2^(64k), reduced or not). The symbol is the same for a residue
  /// and its Montgomery form: R = 2^(64k) is a square. Binary algorithm on
  /// the raw limbs; no BigInt temporaries.
  int Jacobi(const Limbs& a) const;

 private:
  friend class FixedBaseTable;

  MontgomeryContext() = default;

  /// CIOS kernel. `t` is scratch of size k_ + 2 (contents ignored); the
  /// reduced product is left in t[0..k_).
  void MontMulRaw(const uint64_t* a, const uint64_t* b, uint64_t* t) const;

  Limbs Pack(const BigInt& v) const;   ///< 32->64-bit limbs, padded to k_.
  BigInt Unpack(const Limbs& v) const;

  BigInt n_;
  Limbs n64_;              ///< Modulus as 64-bit limbs.
  size_t k_ = 0;           ///< 64-bit limb count of the modulus.
  uint64_t n_prime_ = 0;   ///< -n^{-1} mod 2^64.
  Limbs r2_;               ///< R^2 mod n with R = 2^(64k), packed.
  Limbs one_;              ///< R mod n (Montgomery form of 1), packed.
  Limbs unit_;             ///< Plain 1 (not in the domain), for exits.
};

/// Precomputed windowed table for exponentiations of ONE fixed base modulo
/// one fixed modulus — Pedersen g/h, ElGamal g/y, ZK verification bases.
///
/// Layout: radix-2^w decomposition of the exponent; table entry (i, d)
/// holds base^(d * 2^(w*i)) in the Montgomery domain, so an exponentiation
/// is one MontMul per non-zero digit and NO squarings: ~bits/w MontMuls
/// versus ~1.4*bits for generic sliding window (≈5x fewer at w = 4).
/// Memory is windows * (2^w - 1) residues; at 4-bit windows that is ~32 KiB
/// for a 256-bit group and ~1.1 MiB for a 1536-bit group — the table pays
/// for itself after roughly three exponentiations.
///
/// Immutable after construction and safe for concurrent use.
class FixedBaseTable {
 public:
  /// `max_exp_bits` bounds the exponents the table covers (e.g. q.BitLength()
  /// for Schnorr-group exponents). Wider exponents fall back to the generic
  /// path. Requires a valid shared context for an odd modulus.
  FixedBaseTable(std::shared_ptr<const MontgomeryContext> ctx,
                 const BigInt& base, size_t max_exp_bits,
                 size_t window_bits = 4);

  const MontgomeryContext& ctx() const { return *ctx_; }
  const BigInt& base() const { return base_; }

  /// base^exp mod n. Requires exp >= 0 (any width; wide ones fall back).
  BigInt PowMod(const BigInt& exp) const;

  /// Packed-domain variant for hot loops composing several powers.
  MontgomeryContext::Limbs PowMont(const BigInt& exp) const;

 private:
  std::shared_ptr<const MontgomeryContext> ctx_;
  BigInt base_;
  size_t window_bits_;
  size_t windows_;
  size_t max_exp_bits_;
  /// Flattened [window][digit-1] -> Montgomery residue, digit in [1, 2^w).
  std::vector<MontgomeryContext::Limbs> table_;
};

}  // namespace prever::crypto

#endif  // PREVER_CRYPTO_MONTGOMERY_H_
