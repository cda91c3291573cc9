#ifndef PREVER_CRYPTO_ZKP_INTERNAL_H_
#define PREVER_CRYPTO_ZKP_INTERNAL_H_

// The pieces behind VerifyRange's batched bit check, exposed so the
// differential test, the mutation detectors and the microbench can reach
// them. Production code verifies through VerifyRange; nothing here changes
// what it does.

#include <vector>

#include "crypto/bigint.h"
#include "crypto/pedersen.h"
#include "crypto/zkp.h"

namespace prever::crypto::zkp_internal {

/// The Fiat–Shamir challenge e = e0 + e1 of a bit proof on commitment `c`
/// with nonce commitments t0, t1.
BigInt BitChallenge(const PedersenParams& params, const BigInt& c,
                    const BigInt& t0, const BigInt& t1);

/// Small-exponent weights of the batched bit check, two per bit: entry 2i
/// weights bit i's branch-0 equation and entry 2i + 1 its branch-1
/// equation. Each is a nonzero 128-bit value read off SHA-256 over the
/// statement commitment and every field of every bit proof (C_i, t0, t1,
/// e0, e1, z0, z1), so verification is deterministic and no field can be
/// chosen after the weights are known.
std::vector<BigInt> BatchWeights(const PedersenCommitment& commitment,
                                 const RangeProof& proof);

/// The per-bit range verifier: the width check, VerifyBit on every bit and
/// the weighted-product check. VerifyRange must accept exactly what this
/// accepts; it is the oracle the batched path is tested against.
bool VerifyRangePerBit(const PedersenParams& params,
                       const PedersenCommitment& commitment,
                       const RangeProof& proof, size_t num_bits);

}  // namespace prever::crypto::zkp_internal

#endif  // PREVER_CRYPTO_ZKP_INTERNAL_H_
