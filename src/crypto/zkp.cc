#include "crypto/zkp.h"

#include <algorithm>

#include "crypto/sha256.h"
#include "crypto/zkp_internal.h"
#include "mutate/mutation.h"

namespace prever::crypto {

namespace {

/// Absorbs a transcript value, length-prefixed to keep the encoding
/// injective.
void Absorb(Sha256& hash, const BigInt& v) {
  Bytes b = v.ToBytes();
  Bytes len(4);
  for (int i = 0; i < 4; ++i) {
    len[i] = static_cast<uint8_t>(b.size() >> (8 * i));
  }
  hash.Update(len);
  hash.Update(b);
}

/// Fiat–Shamir challenge: hash a domain tag and the transcript values into
/// Z_q. Every proof type uses a distinct tag to prevent cross-protocol reuse.
BigInt Challenge(const PedersenParams& params, std::string_view tag,
                 const std::vector<const BigInt*>& transcript) {
  Sha256 hash;
  hash.Update(ToBytes(tag));
  hash.Update(params.p.ToBytes());
  hash.Update(params.g.ToBytes());
  hash.Update(params.h.ToBytes());
  for (const BigInt* v : transcript) Absorb(hash, *v);
  return BigInt::FromBytes(hash.Finish()).Mod(params.q);
}

/// Whether the bit commitments' weighted product prod c_i^(2^i) equals the
/// statement commitment, evaluated Horner-style from the top bit down
/// (acc = acc^2 * c_i): 2*num_bits MontMuls instead of num_bits full
/// exponentiations.
bool ReconstructsCommitment(const PedersenParams& params,
                            const PedersenCommitment& commitment,
                            const RangeProof& proof) {
  const MontgomeryContext& ctx = *GetPedersenAccel(params).ctx;
  MontgomeryContext::Limbs acc = ctx.OneMont();
  // Iterate the transcript's own width: identical to num_bits after the size
  // check, and keeps the width-check mutant in bounds.
  for (size_t i = proof.bit_commitments.size(); i-- > 0;) {
    ctx.MulMontLimbs(acc, acc, &acc);
    ctx.MulMontLimbs(
        acc, ctx.PackMont(proof.bit_commitments[i].c.Mod(params.p)), &acc);
  }
  return ctx.UnpackMont(acc) == commitment.c;
}

/// Checks every bit proof of `proof` in one small-exponent batch
/// (DESIGN.md, "Crypto acceleration"). Bit i's two VerifyBit equations,
///   h^z0 = t0 * C^e0   and   h^z1 = t1 * (C * g^-1)^e1,
/// are raised to their weights rho0, rho1 and multiplied together:
///   prod_i t0^rho0 * t1^rho1 * C^((rho0*e0 + rho1*e1) mod q)
///     * g^-(sum rho1*e1) * h^-(sum rho0*z0 + rho1*z1)  =  +-1.
/// That fixes the order-q part of every equation. Reducing C's exponent
/// mod q leaves the {+-1} part of Z_p^* unseen, so each equation's sign is
/// checked exactly on its own, with chi the Legendre symbol mod p:
///   chi(t0 * C^(e0 mod 2)) = chi(t1 * C^(e1 mod 2)) = +1.
bool VerifyBitsBatched(const PedersenParams& params,
                       const PedersenCommitment& commitment,
                       const RangeProof& proof) {
  const size_t n =
      std::min(proof.bit_commitments.size(), proof.bit_proofs.size());
  const PedersenAccel& accel = GetPedersenAccel(params);
  const MontgomeryContext& ctx = *accel.ctx;
  std::vector<BigInt> rho = zkp_internal::BatchWeights(commitment, proof);
  std::vector<MontgomeryContext::Limbs> bases;
  std::vector<BigInt> exps;
  bases.reserve(3 * n);
  exps.reserve(3 * n);
  BigInt g_exp, h_exp;
  auto to_domain = [&](const BigInt& x) {
    return ctx.PackMont(x < params.p ? x : x.Mod(params.p));
  };
  for (size_t i = 0; i < n; ++i) {
    const PedersenCommitment& ci = proof.bit_commitments[i];
    const BitProof& bp = proof.bit_proofs[i];
    BigInt e = Challenge(params, "prever-zkp-bit", {&ci.c, &bp.t0, &bp.t1});
    if (bp.e0.AddMod(bp.e1, params.q) != e) return false;
    MontgomeryContext::Limbs c = to_domain(ci.c);
    MontgomeryContext::Limbs t0 = to_domain(bp.t0);
    MontgomeryContext::Limbs t1 = to_domain(bp.t1);
    MontgomeryContext::Limbs s0 = t0, s1 = t1;
    if (bp.e0.IsOdd()) ctx.MulMontLimbs(s0, c, &s0);
    if (bp.e1.IsOdd()) ctx.MulMontLimbs(s1, c, &s1);
    if (!PREVER_MUTATION(ZKP_BATCH_SIGN_SKIP,
                         ctx.Jacobi(s0) == 1 && ctx.Jacobi(s1) == 1, true)) {
      return false;
    }
    BigInt w0e0 = rho[2 * i] * bp.e0;
    BigInt w1e1 = rho[2 * i + 1] * bp.e1;
    g_exp += w1e1;
    h_exp += rho[2 * i] * bp.z0 + rho[2 * i + 1] * bp.z1;
    bases.push_back(std::move(t0));
    exps.push_back(std::move(rho[2 * i]));
    bases.push_back(std::move(t1));
    exps.push_back(std::move(rho[2 * i + 1]));
    bases.push_back(std::move(c));
    exps.push_back((w0e0 + w1e1).Mod(params.q));
  }
  MontgomeryContext::Limbs acc = ctx.MultiPowMont(bases, exps);
  ctx.MulMontLimbs(acc, accel.g.PowMont(BigInt(0).SubMod(g_exp, params.q)),
                   &acc);
  ctx.MulMontLimbs(acc, accel.h.PowMont(BigInt(0).SubMod(h_exp, params.q)),
                   &acc);
  BigInt result = ctx.UnpackMont(acc);
  return result == BigInt(1) || result == params.p - BigInt(1);
}

}  // namespace

OpeningProof ProveOpening(const PedersenParams& params,
                          const PedersenCommitment& commitment,
                          const BigInt& m, const BigInt& r, Drbg& drbg) {
  BigInt a = drbg.RandomBelow(params.q);
  BigInt b = drbg.RandomBelow(params.q);
  OpeningProof proof;
  proof.t = GetPedersenAccel(params).PowGH(a, b);
  BigInt e = Challenge(params, "prever-zkp-opening", {&commitment.c, &proof.t});
  proof.z1 = (a + e * m.Mod(params.q)).Mod(params.q);
  proof.z2 = (b + e * r.Mod(params.q)).Mod(params.q);
  return proof;
}

bool VerifyOpening(const PedersenParams& params,
                   const PedersenCommitment& commitment,
                   const OpeningProof& proof) {
  BigInt e = Challenge(params, "prever-zkp-opening", {&commitment.c, &proof.t});
  BigInt lhs = GetPedersenAccel(params).PowGH(proof.z1, proof.z2);
  BigInt rhs = proof.t.MulMod(commitment.c.PowMod(e, params.p), params.p);
  return PREVER_MUTATION(ZKP_OPENING_ACCEPT, lhs == rhs, true);
}

Result<BitProof> ProveBit(const PedersenParams& params,
                          const PedersenCommitment& commitment, int bit,
                          const BigInt& r, Drbg& drbg) {
  if (bit != 0 && bit != 1) {
    return Status::InvalidArgument("bit must be 0 or 1");
  }
  // Statements (Schnorr w.r.t. base h):
  //   branch 0: y0 = C       = h^r   (i.e., committed value is 0)
  //   branch 1: y1 = C * g^-1 = h^r  (i.e., committed value is 1)
  // The simulated branch's nonce commitment t = h^z * y^-e expands, with the
  // opening known, into one fixed-base product: for bit 0, y1 = g^-1 h^r
  // gives t1 = g^e1 h^(z1 - r*e1); for bit 1, y0 = g h^r gives
  // t0 = g^-e0 h^(z0 - r*e0).
  const PedersenAccel& accel = GetPedersenAccel(params);
  const BigInt& q = params.q;
  const BigInt r_q = r.Mod(q);

  BitProof proof;
  BigInt w = drbg.RandomBelow(q);
  if (bit == 0) {
    // Real proof on branch 0; simulate branch 1.
    proof.t0 = accel.h.PowMod(w);
    proof.e1 = drbg.RandomBelow(q);
    proof.z1 = drbg.RandomBelow(q);
    proof.t1 = accel.PowGH(proof.e1, proof.z1.SubMod(r_q * proof.e1, q));
    BigInt e = Challenge(params, "prever-zkp-bit",
                         {&commitment.c, &proof.t0, &proof.t1});
    proof.e0 = e.SubMod(proof.e1, q);
    proof.z0 = (w + proof.e0 * r_q).Mod(q);
  } else {
    // Real proof on branch 1; simulate branch 0.
    proof.t1 = accel.h.PowMod(w);
    proof.e0 = drbg.RandomBelow(q);
    proof.z0 = drbg.RandomBelow(q);
    proof.t0 = accel.PowGH(BigInt(0).SubMod(proof.e0, q),
                           proof.z0.SubMod(r_q * proof.e0, q));
    BigInt e = Challenge(params, "prever-zkp-bit",
                         {&commitment.c, &proof.t0, &proof.t1});
    proof.e1 = e.SubMod(proof.e0, q);
    proof.z1 = (w + proof.e1 * r_q).Mod(q);
  }
  return proof;
}

bool VerifyBit(const PedersenParams& params,
               const PedersenCommitment& commitment, const BitProof& proof) {
  BigInt e = Challenge(params, "prever-zkp-bit",
                       {&commitment.c, &proof.t0, &proof.t1});
  if (PREVER_MUTATION(ZKP_BIT_SPLIT_SKIP,
                      proof.e0.AddMod(proof.e1, params.q) != e, false)) {
    return false;
  }
  const PedersenAccel& accel = GetPedersenAccel(params);
  BigInt y0 = commitment.c;
  BigInt y1 = commitment.c.MulMod(accel.g_inv, params.p);
  // h^z0 == t0 * y0^e0
  BigInt lhs0 = accel.h.PowMod(proof.z0);
  BigInt rhs0 = proof.t0.MulMod(y0.PowMod(proof.e0, params.p), params.p);
  if (PREVER_MUTATION(ZKP_BIT_BRANCH0_SKIP, lhs0 != rhs0, false)) return false;
  // h^z1 == t1 * y1^e1
  BigInt lhs1 = accel.h.PowMod(proof.z1);
  BigInt rhs1 = proof.t1.MulMod(y1.PowMod(proof.e1, params.p), params.p);
  return PREVER_MUTATION(ZKP_BIT_BRANCH1_SKIP, lhs1 == rhs1, true);
}

Result<RangeProof> ProveRange(const PedersenParams& params,
                              const PedersenCommitment& commitment,
                              const BigInt& m, const BigInt& r,
                              size_t num_bits, Drbg& drbg) {
  if (num_bits == 0) {
    return Status::InvalidArgument("range proof needs at least one bit");
  }
  if (m.IsNegative() || m.BitLength() > num_bits) {
    return Status::InvalidArgument("value out of range for range proof");
  }
  if (!PedersenVerify(params, commitment, m, r)) {
    return Status::InvalidArgument("commitment does not open to (m, r)");
  }
  RangeProof proof;
  proof.bit_commitments.reserve(num_bits);
  proof.bit_proofs.reserve(num_bits);

  // Choose bit randomness r_i for i > 0 freely; pin r_0 so that
  // sum(2^i * r_i) == r (mod q), making the weighted product of the bit
  // commitments equal the original commitment.
  std::vector<BigInt> bit_rand(num_bits);
  BigInt weighted_tail(0);
  for (size_t i = 1; i < num_bits; ++i) {
    bit_rand[i] = drbg.RandomBelow(params.q);
    weighted_tail =
        weighted_tail.AddMod((BigInt(1) << i).MulMod(bit_rand[i], params.q),
                             params.q);
  }
  bit_rand[0] = r.Mod(params.q).SubMod(weighted_tail, params.q);

  for (size_t i = 0; i < num_bits; ++i) {
    int bit = m.Bit(i) ? 1 : 0;
    PedersenCommitment ci = PedersenCommit(params, BigInt(bit), bit_rand[i]);
    PREVER_ASSIGN_OR_RETURN(BitProof bp,
                            ProveBit(params, ci, bit, bit_rand[i], drbg));
    proof.bit_commitments.push_back(ci);
    proof.bit_proofs.push_back(std::move(bp));
  }
  return proof;
}

bool VerifyRange(const PedersenParams& params,
                 const PedersenCommitment& commitment, const RangeProof& proof,
                 size_t num_bits) {
  if (PREVER_MUTATION(ZKP_RANGE_WIDTH_SKIP,
                      proof.bit_commitments.size() != num_bits ||
                          proof.bit_proofs.size() != num_bits,
                      false)) {
    return false;
  }
  // Each bit commitment must open to 0/1.
  if (PREVER_MUTATION(ZKP_RANGE_BIT_SKIP,
                      !VerifyBitsBatched(params, commitment, proof), false)) {
    return false;
  }
  return PREVER_MUTATION(ZKP_RANGE_PRODUCT_ACCEPT,
                         ReconstructsCommitment(params, commitment, proof),
                         true);
}

Result<RangeProof> ProveUpperBound(const PedersenParams& params,
                                   const PedersenCommitment& /*commitment*/,
                                   const BigInt& m, const BigInt& r,
                                   const BigInt& bound, size_t num_bits,
                                   Drbg& drbg) {
  if (m > bound) {
    return Status::InvalidArgument("value exceeds bound; cannot prove");
  }
  // slack = bound - m >= 0. Its commitment is Commit(bound, 0) / C, which the
  // verifier can derive; the slack randomness is -r mod q.
  BigInt slack = bound - m;
  BigInt slack_r = params.q - r.Mod(params.q);
  if (slack_r == params.q) slack_r = BigInt(0);
  PedersenCommitment slack_commitment =
      PedersenCommit(params, slack, slack_r);
  return ProveRange(params, slack_commitment, slack, slack_r, num_bits, drbg);
}

bool VerifyUpperBound(const PedersenParams& params,
                      const PedersenCommitment& commitment,
                      const RangeProof& proof, const BigInt& bound,
                      size_t num_bits) {
  // Derive Commit(bound - m, -r) = g^bound * C^{-1}.
  auto c_inv = commitment.c.InvMod(params.p);
  if (!c_inv.ok()) return false;
  PedersenCommitment slack_commitment{
      GetPedersenAccel(params).g.PowMod(bound.Mod(params.q))
          .MulMod(c_inv.value(), params.p)};
  return PREVER_MUTATION(ZKP_UPPER_SLACK_ACCEPT,
                         VerifyRange(params, slack_commitment, proof, num_bits),
                         true);
}

Result<RangeProof> ProveLowerBound(const PedersenParams& params,
                                   const PedersenCommitment& /*commitment*/,
                                   const BigInt& m, const BigInt& r,
                                   const BigInt& bound, size_t num_bits,
                                   Drbg& drbg) {
  if (m < bound) {
    return Status::InvalidArgument("value below bound; cannot prove");
  }
  // slack = m - bound >= 0; commitment is C / Commit(bound, 0), randomness r.
  BigInt slack = m - bound;
  PedersenCommitment slack_commitment = PedersenCommit(params, slack, r);
  return ProveRange(params, slack_commitment, slack, r, num_bits, drbg);
}

bool VerifyLowerBound(const PedersenParams& params,
                      const PedersenCommitment& commitment,
                      const RangeProof& proof, const BigInt& bound,
                      size_t num_bits) {
  // Derive Commit(m - bound, r) = C * g^{-bound}.
  auto g_pow_bound_inv =
      GetPedersenAccel(params).g.PowMod(bound.Mod(params.q)).InvMod(params.p);
  if (!g_pow_bound_inv.ok()) return false;
  PedersenCommitment slack_commitment{
      commitment.c.MulMod(g_pow_bound_inv.value(), params.p)};
  return PREVER_MUTATION(ZKP_LOWER_SLACK_ACCEPT,
                         VerifyRange(params, slack_commitment, proof, num_bits),
                         true);
}

namespace zkp_internal {

BigInt BitChallenge(const PedersenParams& params, const BigInt& c,
                    const BigInt& t0, const BigInt& t1) {
  return Challenge(params, "prever-zkp-bit", {&c, &t0, &t1});
}

std::vector<BigInt> BatchWeights(const PedersenCommitment& commitment,
                                 const RangeProof& proof) {
  const size_t n =
      std::min(proof.bit_commitments.size(), proof.bit_proofs.size());
  Sha256 hash;
  hash.Update(ToBytes("prever-zkp-range-batch"));
  Absorb(hash, commitment.c);
  for (size_t i = 0; i < n; ++i) {
    const BitProof& bp = proof.bit_proofs[i];
    for (const BigInt* v :
         {&proof.bit_commitments[i].c, &bp.t0, &bp.t1, &bp.e0, &bp.e1}) {
      Absorb(hash, *v);
    }
    if (PREVER_MUTATION(ZKP_BATCH_SEED_OMITS_RESPONSES, true, false)) {
      Absorb(hash, bp.z0);
      Absorb(hash, bp.z1);
    }
  }
  const Bytes seed = hash.Finish();
  // Bit i's weights are the two halves of SHA-256(seed || i).
  std::vector<BigInt> rho;
  rho.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    Sha256 expand;
    expand.Update(seed);
    Bytes index(8);
    for (int b = 0; b < 8; ++b) index[b] = static_cast<uint8_t>(i >> (8 * b));
    expand.Update(index);
    const Bytes block = expand.Finish();
    for (size_t half = 0; half < 2; ++half) {
      BigInt w = BigInt::FromBytes(
          Bytes(block.begin() + 16 * half, block.begin() + 16 * (half + 1)));
      if (w.IsZero()) w = BigInt(1);
      rho.push_back(PREVER_MUTATION(ZKP_BATCH_UNIT_WEIGHTS, w, BigInt(1)));
    }
  }
  return rho;
}

bool VerifyRangePerBit(const PedersenParams& params,
                       const PedersenCommitment& commitment,
                       const RangeProof& proof, size_t num_bits) {
  if (proof.bit_commitments.size() != num_bits ||
      proof.bit_proofs.size() != num_bits) {
    return false;
  }
  for (size_t i = 0; i < num_bits; ++i) {
    if (!VerifyBit(params, proof.bit_commitments[i], proof.bit_proofs[i])) {
      return false;
    }
  }
  return ReconstructsCommitment(params, commitment, proof);
}

}  // namespace zkp_internal

}  // namespace prever::crypto
