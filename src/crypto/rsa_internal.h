#ifndef PREVER_CRYPTO_RSA_INTERNAL_H_
#define PREVER_CRYPTO_RSA_INTERNAL_H_

// The full-exponent RSA private operation that the CRT signer replaced,
// kept as the oracle the differential test and the microbench hold
// RsaSign and RsaBlindSign against. Production code signs through rsa.h.

#include "crypto/bigint.h"
#include "crypto/rsa.h"

namespace prever::crypto::rsa_internal {

/// c^d mod n with the full private exponent and no fault check. Signatures
/// are unique, so RsaBlindSign(key, c) must return exactly this value.
BigInt PrivateOpNoCrt(const RsaKeyPair& key, const BigInt& c);

}  // namespace prever::crypto::rsa_internal

#endif  // PREVER_CRYPTO_RSA_INTERNAL_H_
