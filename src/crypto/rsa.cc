#include "crypto/rsa.h"

#include "crypto/hmac.h"
#include "crypto/prime.h"
#include "crypto/rsa_internal.h"
#include "crypto/sha256.h"
#include "mutate/mutation.h"

namespace prever::crypto {

Result<RsaKeyPair> RsaGenerateKey(size_t modulus_bits, Drbg& drbg) {
  if (modulus_bits < 128 || modulus_bits % 2 != 0) {
    return Status::InvalidArgument("modulus_bits must be even and >= 128");
  }
  const BigInt e(65537);
  for (;;) {
    BigInt p = GeneratePrime(modulus_bits / 2, drbg);
    BigInt q = GenerateDistinctPrime(modulus_bits / 2, p, drbg);
    BigInt n = p * q;
    if (n.BitLength() != modulus_bits) continue;
    BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    auto d = e.InvMod(phi);
    if (!d.ok()) continue;  // e not coprime with phi; rare, retry.
    auto qinv = q.InvMod(p);
    if (!qinv.ok()) continue;  // Unreachable: p and q are distinct primes.
    RsaKeyPair kp;
    kp.pub.n = n;
    kp.pub.e = e;
    kp.d = std::move(d).value();
    kp.dp = kp.d.Mod(p - BigInt(1));
    kp.dq = kp.d.Mod(q - BigInt(1));
    kp.qinv = std::move(qinv).value();
    kp.p = std::move(p);
    kp.q = std::move(q);
    return kp;
  }
}

BigInt RsaFdh(const RsaPublicKey& pub, const Bytes& message) {
  // MGF1-style expansion of SHA-256(message) across the modulus width, then
  // reduce mod n. Deterministic, so signer and verifier agree.
  Bytes seed = Sha256::Hash(message);
  Bytes expanded = HkdfExpand(seed, ToBytes("prever-rsa-fdh"),
                              pub.ModulusBytes() + 8);
  return BigInt::FromBytes(expanded).Mod(pub.n);
}

namespace {

/// c^d mod n by CRT: two half-width exponentiations, each about an eighth
/// of the full-width c^d mod n, and Garner's recombination.
Result<BigInt> RsaPrivateOp(const RsaKeyPair& key, const BigInt& c) {
  if (key.p.IsZero() || key.q.IsZero()) {
    return Status::InvalidArgument("RSA key lacks its CRT values");
  }
  BigInt sp = c.Mod(key.p).PowMod(key.dp, key.p);
  BigInt sq = c.Mod(key.q).PowMod(key.dq, key.q);
  // Garner: s = sq + q * ((sp - sq) * qinv mod p), in [0, n).
  BigInt h = sp.SubMod(sq, key.p).MulMod(key.qinv, key.p);
  BigInt s = sq + key.q * PREVER_MUTATION(RSA_CRT_GARNER_OFF_BY_ONE, h,
                                          h + BigInt(1));
  // Boneh–DeMillo–Lipton: if one half is wrong (a corrupted dp, dq or
  // qinv, or a computation fault), s is right mod one prime only, and
  // gcd(s^e - c, n) reveals that prime. So s leaves only once s^e == c.
  if (PREVER_MUTATION(RSA_CRT_FAULT_CHECK_SKIP,
                      s.PowMod(key.pub.e, key.pub.n) != c.Mod(key.pub.n),
                      false)) {
    return Status::Internal("RSA-CRT fault check failed; signature withheld");
  }
  return s;
}

}  // namespace

namespace rsa_internal {

BigInt PrivateOpNoCrt(const RsaKeyPair& key, const BigInt& c) {
  return c.PowMod(key.d, key.pub.n);
}

}  // namespace rsa_internal

Result<Bytes> RsaSign(const RsaKeyPair& key, const Bytes& message) {
  PREVER_ASSIGN_OR_RETURN(BigInt sig,
                          RsaPrivateOp(key, RsaFdh(key.pub, message)));
  return sig.ToBytesPadded(key.pub.ModulusBytes());
}

bool RsaVerify(const RsaPublicKey& pub, const Bytes& message,
               const Bytes& sig) {
  if (PREVER_MUTATION(RSA_VERIFY_LENGTH_SKIP,
                      sig.size() != pub.ModulusBytes(), false)) {
    return false;
  }
  BigInt s = BigInt::FromBytes(sig);
  if (PREVER_MUTATION(RSA_VERIFY_RANGE_SKIP, s >= pub.n, false)) return false;
  BigInt recovered = s.PowMod(pub.e, pub.n);
  return PREVER_MUTATION(RSA_VERIFY_ACCEPT, recovered == RsaFdh(pub, message),
                         true);
}

Result<BlindingResult> RsaBlind(const RsaPublicKey& pub, const Bytes& message,
                                Drbg& drbg) {
  BigInt m = RsaFdh(pub, message);
  for (int attempt = 0; attempt < 64; ++attempt) {
    BigInt r = drbg.RandomNonZeroBelow(pub.n);
    auto r_inv = r.InvMod(pub.n);
    if (!r_inv.ok()) continue;  // gcd(r, n) != 1 — astronomically rare.
    BlindingResult out;
    out.blinded_message = m.MulMod(r.PowMod(pub.e, pub.n), pub.n);
    out.unblinder = std::move(r_inv).value();
    return out;
  }
  return Status::Internal("could not find invertible blinding factor");
}

Result<BigInt> RsaBlindSign(const RsaKeyPair& key,
                            const BigInt& blinded_message) {
  return RsaPrivateOp(key, blinded_message);
}

Bytes RsaUnblind(const RsaPublicKey& pub, const BigInt& blind_signature,
                 const BigInt& unblinder) {
  BigInt sig = blind_signature.MulMod(unblinder, pub.n);
  return sig.ToBytesPadded(pub.ModulusBytes()).value();
}

}  // namespace prever::crypto
