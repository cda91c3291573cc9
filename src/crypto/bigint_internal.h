#ifndef PREVER_CRYPTO_BIGINT_INTERNAL_H_
#define PREVER_CRYPTO_BIGINT_INTERNAL_H_

// The extended-Euclid modular inverse that BigInt::InvMod replaced, kept as
// the oracle the differential test and the microbench hold the limb-level
// inverse against. Production code inverts through BigInt::InvMod.

#include "common/status.h"
#include "crypto/bigint.h"

namespace prever::crypto::bigint_internal {

/// value^{-1} mod m by extended Euclid on BigInt values (one long division
/// per step). Requires m > 0; InvalidArgument when gcd(value, m) != 1.
Result<BigInt> InvModEuclid(const BigInt& value, const BigInt& m);

}  // namespace prever::crypto::bigint_internal

#endif  // PREVER_CRYPTO_BIGINT_INTERNAL_H_
