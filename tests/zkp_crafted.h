#ifndef PREVER_TESTS_ZKP_CRAFTED_H_
#define PREVER_TESTS_ZKP_CRAFTED_H_

// Range-proof transcripts no honest prover emits, shared by the crypto
// differential test and the mutation kill matrix.

#include "crypto/bigint.h"
#include "crypto/drbg.h"
#include "crypto/pedersen.h"
#include "crypto/zkp.h"
#include "crypto/zkp_internal.h"

namespace prever::crypto {

/// A 1-bit range transcript (its statement commitment is C itself) on a
/// commitment outside the order-q subgroup: C = -h^r and t0 = -h^w, with
/// branch 0 answered as if C were h^r. Branch 1 is simulated with a true
/// inverse, so its equation holds exactly. Branch 0's equation
/// h^z0 = t0 * C^e0 = (-1)^(1 + e0) * h^(w + r*e0) holds exactly when e0 is
/// odd, so VerifyBit accepts about half of these. Every order-q component
/// matches, so a +-1 product test without the sign check accepts them all.
inline RangeProof CraftNonResidueRange(const PedersenParams& params,
                                       Drbg& drbg,
                                       PedersenCommitment* statement) {
  const BigInt& p = params.p;
  const BigInt& q = params.q;
  BigInt r = drbg.RandomBelow(q);
  BigInt w = drbg.RandomBelow(q);
  PedersenCommitment c{p - params.h.PowMod(r, p)};
  BitProof bp;
  bp.t0 = p - params.h.PowMod(w, p);
  bp.e1 = drbg.RandomBelow(q);
  bp.z1 = drbg.RandomBelow(q);
  BigInt y1 = c.c.MulMod(params.g.InvMod(p).value(), p);
  bp.t1 = params.h.PowMod(bp.z1, p)
              .MulMod(y1.PowMod(bp.e1, p).InvMod(p).value(), p);
  BigInt e = zkp_internal::BitChallenge(params, c.c, bp.t0, bp.t1);
  bp.e0 = e.SubMod(bp.e1, q);
  bp.z0 = (w + bp.e0 * r).Mod(q);
  *statement = c;
  RangeProof proof;
  proof.bit_commitments.push_back(c);
  proof.bit_proofs.push_back(std::move(bp));
  return proof;
}

}  // namespace prever::crypto

#endif  // PREVER_TESTS_ZKP_CRAFTED_H_
