#ifndef PREVER_CRYPTO_RSA_H_
#define PREVER_CRYPTO_RSA_H_

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/bigint.h"
#include "crypto/drbg.h"

namespace prever::crypto {

/// RSA public key (n, e).
struct RsaPublicKey {
  BigInt n;
  BigInt e;

  size_t ModulusBytes() const { return (n.BitLength() + 7) / 8; }
};

/// RSA key pair with the CRT private key of PKCS #1 (RFC 8017 §3.2): the
/// primes p and q, dp = d mod (p-1), dq = d mod (q-1) and qinv = q^{-1}
/// mod p. Signing runs on the CRT values; d stays for the full-exponent
/// oracle (rsa_internal.h). Whoever holds d can factor n, so the primes
/// add nothing to what the key holder already knows.
struct RsaKeyPair {
  RsaPublicKey pub;
  BigInt d;
  BigInt p, q;
  BigInt dp, dq, qinv;
};

/// Generates an RSA key pair with a modulus of `modulus_bits` bits and
/// public exponent 65537. Research-scale sizes (512–2048) are supported.
Result<RsaKeyPair> RsaGenerateKey(size_t modulus_bits, Drbg& drbg);

/// Full-domain-hash style signature: sig = H*(m)^d mod n where H* expands
/// SHA-256 over the modulus width (deterministic MGF1-like expansion).
/// Computed by CRT and released only after sig^e == H*(m) (mod n) is
/// checked: Internal when that fault check fails (a corrupted CRT value or
/// a fault in either half), and the faulty value is never returned.
Result<Bytes> RsaSign(const RsaKeyPair& key, const Bytes& message);

/// Verifies sig^e == H*(m) mod n.
bool RsaVerify(const RsaPublicKey& pub, const Bytes& message, const Bytes& sig);

/// Hashes a message into Z_n for FDH signing (shared by blind signatures).
BigInt RsaFdh(const RsaPublicKey& pub, const Bytes& message);

// --- Chaum blind signatures (token privacy in the Separ instantiation) ---
//
// The requester blinds H*(m) with a random factor r: blinded = H*(m) * r^e.
// The authority signs the blinded value without learning m; the requester
// unblinds by multiplying with r^{-1}. The resulting signature verifies like
// a normal FDH signature but the authority cannot link it to the issuance.

struct BlindingResult {
  BigInt blinded_message;  ///< Send this to the signer.
  BigInt unblinder;        ///< Keep secret; r^{-1} mod n.
};

/// Blinds `message` for the holder of `pub`.
Result<BlindingResult> RsaBlind(const RsaPublicKey& pub, const Bytes& message,
                                Drbg& drbg);

/// Signer side: raw signature on the blinded value, by CRT under the same
/// fault check as RsaSign.
Result<BigInt> RsaBlindSign(const RsaKeyPair& key,
                            const BigInt& blinded_message);

/// Requester side: removes the blinding factor, yielding a standard
/// signature on `message` (verify with RsaVerify).
Bytes RsaUnblind(const RsaPublicKey& pub, const BigInt& blind_signature,
                 const BigInt& unblinder);

}  // namespace prever::crypto

#endif  // PREVER_CRYPTO_RSA_H_
