// Differential tests for the accelerated crypto hot paths: the Montgomery
// CIOS/sliding-window PowMod, the fixed-base tables, CRT Paillier
// decryption, the SHA-NI SHA-256 compressor, the Jacobi symbol, the
// batched range-proof verifier, the limb-level modular inverse and RSA-CRT
// signing are each checked against slow reference implementations whose
// correctness is obvious (schoolbook square-and-multiply; the direct
// lambda/mu decryption; the portable compressor behind a whole-message pad;
// Euler's criterion; VerifyBit on every bit; extended Euclid; the full
// exponent c^d mod n). Run under scripts/check.sh's ASan+UBSan config so kernel bugs
// surface as either a mismatch or a sanitizer report.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <utility>

#include "crypto/bigint.h"
#include "crypto/bigint_internal.h"
#include "crypto/drbg.h"
#include "crypto/montgomery.h"
#include "crypto/paillier.h"
#include "crypto/pedersen.h"
#include "crypto/prime.h"
#include "crypto/rsa.h"
#include "crypto/rsa_internal.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"
#include "crypto/zkp.h"
#include "crypto/zkp_internal.h"
#include "zkp_crafted.h"

namespace prever::crypto {
namespace {

/// Schoolbook square-and-multiply via plain MulMod (divide-based): the
/// reference the Montgomery kernel must agree with.
BigInt RefPowMod(const BigInt& base, const BigInt& e, const BigInt& m) {
  BigInt b = base.Mod(m);
  BigInt result = BigInt(1).Mod(m);
  for (size_t i = e.BitLength(); i-- > 0;) {
    result = result.MulMod(result, m);
    if (e.Bit(i)) result = result.MulMod(b, m);
  }
  return result;
}

BigInt RandomOdd(Drbg& drbg, size_t bits) {
  BigInt m = drbg.RandomBits(bits);
  if (!m.IsOdd()) m = m + BigInt(1);
  return m;
}

TEST(PowModDiffTest, RandomTriplesAcrossWidths) {
  Drbg drbg(uint64_t{0xd1ff});
  for (size_t bits : {33u, 64u, 65u, 127u, 193u, 256u, 384u}) {
    for (int round = 0; round < 8; ++round) {
      BigInt m = RandomOdd(drbg, bits);
      BigInt base = drbg.RandomBelow(m);
      BigInt e = drbg.RandomBits(bits);
      EXPECT_EQ(base.PowMod(e, m), RefPowMod(base, e, m))
          << bits << "-bit round " << round;
    }
  }
}

TEST(PowModDiffTest, BaseAtLeastModulus) {
  Drbg drbg(uint64_t{0xbadd});
  for (int round = 0; round < 10; ++round) {
    BigInt m = RandomOdd(drbg, 128);
    // Base deliberately wider than the modulus: the kernel must reduce it.
    BigInt base = drbg.RandomBits(256);
    BigInt e = drbg.RandomBits(96);
    EXPECT_EQ(base.PowMod(e, m), RefPowMod(base, e, m)) << round;
    EXPECT_EQ(m.PowMod(e, m), BigInt(0)) << "m^e mod m";
    EXPECT_EQ((m + BigInt(1)).PowMod(e, m), BigInt(1)) << "(m+1)^e mod m";
  }
}

TEST(PowModDiffTest, EdgeExponents) {
  Drbg drbg(uint64_t{0xe0e0});
  BigInt m = RandomOdd(drbg, 192);
  BigInt base = drbg.RandomBelow(m);
  EXPECT_EQ(base.PowMod(BigInt(0), m), BigInt(1));
  EXPECT_EQ(base.PowMod(BigInt(1), m), base);
  EXPECT_EQ(base.PowMod(BigInt(2), m), base.MulMod(base, m));
  // Powers of two exercise the all-zero-window path of the sliding window.
  for (size_t k : {17u, 63u, 64u, 100u, 191u}) {
    BigInt e = BigInt(1) << k;
    EXPECT_EQ(base.PowMod(e, m), RefPowMod(base, e, m)) << "e=2^" << k;
  }
  // All-ones exponent maximizes window density.
  BigInt ones = (BigInt(1) << 160) - BigInt(1);
  EXPECT_EQ(base.PowMod(ones, m), RefPowMod(base, ones, m));
  // Degenerate bases.
  BigInt e = drbg.RandomBits(128);
  EXPECT_EQ(BigInt(0).PowMod(e, m), BigInt(0));
  EXPECT_EQ(BigInt(1).PowMod(e, m), BigInt(1));
  EXPECT_EQ((m - BigInt(1)).PowMod(e, m),
            RefPowMod(m - BigInt(1), e, m));
}

TEST(PowModDiffTest, EvenModulusFallback) {
  Drbg drbg(uint64_t{0xeeee});
  for (int round = 0; round < 8; ++round) {
    BigInt m = drbg.RandomBits(160);
    if (m.IsOdd()) m = m + BigInt(1);  // Force even: no Montgomery context.
    BigInt base = drbg.RandomBelow(m);
    BigInt e = drbg.RandomBits(80);
    EXPECT_EQ(base.PowMod(e, m), RefPowMod(base, e, m)) << round;
  }
  // Even modulus must be rejected by the context factory, not mis-handled.
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(100)).ok());
  EXPECT_FALSE(MontgomeryContext::Shared(BigInt(1)).ok());
}

TEST(PowModDiffTest, ContextPowModMatchesReferenceDirectly) {
  Drbg drbg(uint64_t{0xc0de});
  for (size_t bits : {65u, 128u, 256u}) {
    BigInt m = RandomOdd(drbg, bits);
    auto ctx = MontgomeryContext::Create(m);
    ASSERT_TRUE(ctx.ok());
    for (int round = 0; round < 6; ++round) {
      BigInt base = drbg.RandomBelow(m);
      // Short exponents too: below BigInt::PowMod's fast-path cutoff, but
      // the context API itself must handle them.
      BigInt e = drbg.RandomBits(round % 2 == 0 ? 8 : bits);
      EXPECT_EQ(ctx->PowMod(base, e), RefPowMod(base, e, m));
    }
  }
}

TEST(PowModDiffTest, MontgomeryDomainRoundTripAndAliasing) {
  Drbg drbg(uint64_t{0xa11a});
  BigInt m = RandomOdd(drbg, 256);
  auto ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  BigInt a = drbg.RandomBelow(m);
  BigInt b = drbg.RandomBelow(m);
  MontgomeryContext::Limbs am = ctx->PackMont(a);
  MontgomeryContext::Limbs bm = ctx->PackMont(b);
  EXPECT_EQ(ctx->UnpackMont(am), a);
  // out aliasing a, then b, then squaring in place.
  MontgomeryContext::Limbs out = am;
  ctx->MulMontLimbs(out, bm, &out);
  EXPECT_EQ(ctx->UnpackMont(out), a.MulMod(b, m));
  out = bm;
  ctx->MulMontLimbs(am, out, &out);
  EXPECT_EQ(ctx->UnpackMont(out), a.MulMod(b, m));
  out = am;
  ctx->MulMontLimbs(out, out, &out);
  EXPECT_EQ(ctx->UnpackMont(out), a.MulMod(a, m));
  EXPECT_EQ(ctx->UnpackMont(ctx->OneMont()), BigInt(1));
}

TEST(FixedBaseDiffTest, TableAgreesWithGenericPowMod) {
  Drbg drbg(uint64_t{0xf1bb});
  for (size_t bits : {65u, 255u}) {
    BigInt m = RandomOdd(drbg, bits);
    auto ctx = MontgomeryContext::Shared(m);
    ASSERT_TRUE(ctx.ok());
    BigInt base = drbg.RandomBelow(m);
    for (size_t window : {1u, 3u, 4u, 5u}) {
      FixedBaseTable table(*ctx, base, /*max_exp_bits=*/bits, window);
      EXPECT_EQ(table.PowMod(BigInt(0)), BigInt(1));
      EXPECT_EQ(table.PowMod(BigInt(1)), base.Mod(m));
      for (int round = 0; round < 6; ++round) {
        BigInt e = drbg.RandomBits(1 + (round * bits) / 6);
        EXPECT_EQ(table.PowMod(e), base.PowMod(e, m))
            << bits << "-bit, window " << window << ", round " << round;
      }
      // Wider than max_exp_bits: must fall back to the generic path.
      BigInt wide = drbg.RandomBits(bits + 70);
      EXPECT_EQ(table.PowMod(wide), base.PowMod(wide, m));
    }
  }
}

class PaillierCrtDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Drbg keygen(uint64_t{0x9a11});
    key_ = PaillierGenerateKey(256, keygen).value();
    ASSERT_TRUE(key_.priv.HasCrt());
  }
  PaillierKeyPair key_;
  Drbg drbg_{uint64_t{0x77}};
};

TEST_F(PaillierCrtDiffTest, CrtMatchesNoCrtOnRandomPlaintexts) {
  for (int round = 0; round < 12; ++round) {
    BigInt m = drbg_.RandomBelow(key_.pub.n);
    auto ct = PaillierEncrypt(key_.pub, m, drbg_);
    ASSERT_TRUE(ct.ok());
    auto fast = PaillierDecrypt(key_, *ct);
    auto slow = PaillierDecryptNoCrt(key_, *ct);
    ASSERT_TRUE(fast.ok() && slow.ok());
    EXPECT_EQ(*fast, *slow) << round;
    EXPECT_EQ(*fast, m) << round;
  }
}

TEST_F(PaillierCrtDiffTest, PlaintextSpaceEdges) {
  for (const BigInt& m : {BigInt(0), BigInt(1), key_.pub.n - BigInt(1)}) {
    auto ct = PaillierEncrypt(key_.pub, m, drbg_);
    ASSERT_TRUE(ct.ok());
    EXPECT_EQ(PaillierDecrypt(key_, *ct).value(), m);
    EXPECT_EQ(PaillierDecryptNoCrt(key_, *ct).value(), m);
  }
}

TEST_F(PaillierCrtDiffTest, SignedFoldAroundHalfN) {
  // DecryptSigned folds residues > n/2 negative; check both sides of the
  // boundary decode identically through the CRT path.
  auto ct_neg = PaillierEncryptSigned(key_.pub, -12345, drbg_);
  ASSERT_TRUE(ct_neg.ok());
  EXPECT_EQ(PaillierDecryptSigned(key_, *ct_neg).value(), -12345);
  auto ct_pos = PaillierEncryptSigned(key_.pub, 12345, drbg_);
  ASSERT_TRUE(ct_pos.ok());
  EXPECT_EQ(PaillierDecryptSigned(key_, *ct_pos).value(), 12345);
}

TEST_F(PaillierCrtDiffTest, HomomorphicRoundTrips) {
  auto a = PaillierEncrypt(key_.pub, BigInt(1000), drbg_);
  auto b = PaillierEncrypt(key_.pub, BigInt(234), drbg_);
  ASSERT_TRUE(a.ok() && b.ok());
  PaillierCiphertext sum = PaillierAdd(key_.pub, *a, *b);
  EXPECT_EQ(PaillierDecrypt(key_, sum).value(), BigInt(1234));
  PaillierCiphertext scaled = PaillierMulPlain(key_.pub, *a, BigInt(7));
  EXPECT_EQ(PaillierDecrypt(key_, scaled).value(), BigInt(7000));
  PaillierCiphertext shifted = PaillierAddPlain(key_.pub, *b, BigInt(66));
  EXPECT_EQ(PaillierDecrypt(key_, shifted).value(), BigInt(300));
  auto rerand = PaillierRerandomize(key_.pub, *a, drbg_);
  ASSERT_TRUE(rerand.ok());
  EXPECT_NE(rerand->c, a->c);
  EXPECT_EQ(PaillierDecrypt(key_, *rerand).value(), BigInt(1000));
}


TEST_F(PaillierCrtDiffTest, TamperedCiphertextDiffersIdenticallyInBothPaths) {
  // An attacker-perturbed ciphertext must never silently decrypt to the
  // original plaintext, and the CRT fast path must mis-decrypt it to the
  // SAME value the reference path does (no path-dependent malleability).
  BigInt m(424242);
  auto ct = PaillierEncrypt(key_.pub, m, drbg_);
  ASSERT_TRUE(ct.ok());

  // Multiplying by g adds exactly 1 to the plaintext: the tamper is
  // homomorphically predictable, so pin both paths to m + 1.
  PaillierCiphertext shifted{ct->c.MulMod(key_.pub.g, key_.pub.n2)};
  EXPECT_EQ(PaillierDecrypt(key_, shifted).value(), m + BigInt(1));
  EXPECT_EQ(PaillierDecryptNoCrt(key_, shifted).value(), m + BigInt(1));

  // A structureless nudge decrypts to SOME garbage; both paths must agree
  // on it and it must not collide with the honest plaintext.
  PaillierCiphertext nudged{ct->c + BigInt(1)};
  auto fast = PaillierDecrypt(key_, nudged);
  auto slow = PaillierDecryptNoCrt(key_, nudged);
  ASSERT_TRUE(fast.ok() && slow.ok());
  EXPECT_EQ(*fast, *slow);
  EXPECT_NE(*fast, m);

  // Out-of-group ciphertexts are rejected by both paths, not wrapped.
  PaillierCiphertext oversized{ct->c + key_.pub.n2};
  EXPECT_FALSE(PaillierDecrypt(key_, oversized).ok());
  EXPECT_FALSE(PaillierDecryptNoCrt(key_, oversized).ok());
}

TEST_F(PaillierCrtDiffTest, KeyWithoutFactorsStillDecrypts) {
  // A key reconstructed from (lambda, mu) alone — e.g. deserialized from a
  // legacy export — must transparently use the direct route.
  PaillierKeyPair stripped = key_;
  stripped.priv.p = BigInt(0);
  ASSERT_FALSE(stripped.priv.HasCrt());
  BigInt m(987654321);
  auto ct = PaillierEncrypt(key_.pub, m, drbg_);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(PaillierDecrypt(stripped, *ct).value(), m);
}

// ------------------------------------------------------------------ SHA-256

constexpr uint32_t kSha256Iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                   0xa54ff53a, 0x510e527f, 0x9b05688c,
                                   0x1f83d9ab, 0x5be0cd19};

Bytes RandomBytes(std::mt19937_64& rng, size_t n) {
  Bytes out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng());
  return out;
}

/// Portable-only SHA-256 with its own padding: the whole message, 0x80,
/// zeros and the 64-bit bit length laid out in one buffer and run through
/// the portable compressor. Shares neither Sha256's streaming buffer nor its
/// pad code, so it checks both along with the dispatched compressor.
Bytes RefSha256(const Bytes& msg) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = uint64_t{msg.size()} * 8;
  for (int shift = 56; shift >= 0; shift -= 8) {
    padded.push_back(static_cast<uint8_t>(bits >> shift));
  }
  uint32_t state[8];
  std::memcpy(state, kSha256Iv, sizeof(state));
  sha256_internal::CompressPortable(state, padded.data(), padded.size() / 64);
  Bytes out;
  for (uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      out.push_back(static_cast<uint8_t>(word >> shift));
    }
  }
  return out;
}

TEST(Sha256DiffTest, ShaNiCompressorMatchesPortable) {
#if defined(__x86_64__) || defined(__i386__)
  if (!sha256_internal::CpuHasShaNi()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions: Sha256 runs the portable "
                    "compressor only";
  }
  std::mt19937_64 rng(0x5a256);
  for (int round = 0; round < 12000; ++round) {
    // Mostly single blocks; every fourth round chains 2..8 blocks so the
    // state carried in registers between blocks is checked too.
    const size_t blocks = round % 4 == 3 ? 2 + rng() % 7 : 1;
    uint32_t portable[8];
    for (uint32_t& word : portable) word = static_cast<uint32_t>(rng());
    uint32_t hardware[8];
    std::memcpy(hardware, portable, sizeof(hardware));
    Bytes data = RandomBytes(rng, 64 * blocks);
    sha256_internal::CompressPortable(portable, data.data(), blocks);
    sha256_internal::CompressShaNi(hardware, data.data(), blocks);
    ASSERT_EQ(0, std::memcmp(portable, hardware, sizeof(portable)))
        << "round " << round << ", " << blocks << " blocks";
  }
#else
  GTEST_SKIP() << "no SHA-NI compressor on this architecture";
#endif
}

TEST(Sha256DiffTest, DispatchPicksHardwareWhenPresent) {
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(sha256_internal::Dispatched(),
            sha256_internal::CpuHasShaNi() ? &sha256_internal::CompressShaNi
                                           : &sha256_internal::CompressPortable);
#else
  EXPECT_EQ(sha256_internal::Dispatched(), &sha256_internal::CompressPortable);
#endif
}

TEST(Sha256DiffTest, DispatchedMatchesPortableOnEveryLengthTo320) {
  // Crosses every pad edge: 55/56 (length fits / spills into a second
  // block), 63/64/65 and 119/120/128.
  std::mt19937_64 rng(0x9ad);
  for (size_t len = 0; len <= 320; ++len) {
    Bytes msg = RandomBytes(rng, len);
    ASSERT_EQ(Sha256::Hash(msg), RefSha256(msg)) << "length " << len;
  }
}

TEST(Sha256DiffTest, RandomUpdateSplitsMatchPortable) {
  std::mt19937_64 rng(0x5b117);
  for (int round = 0; round < 400; ++round) {
    Bytes msg = RandomBytes(rng, rng() % 700);
    Sha256 h;
    size_t at = 0;
    while (at < msg.size()) {
      // Chunks of 0..150 bytes: empty, sub-block, block-aligned and
      // multi-block updates, starting at any buffered offset.
      size_t take = std::min<size_t>(rng() % 151, msg.size() - at);
      h.Update(msg.data() + at, take);
      at += take;
    }
    ASSERT_EQ(h.Finish(), RefSha256(msg)) << "round " << round;
  }
}

// ------------------------------------------------------------ Jacobi symbol

/// x as the context's k raw 64-bit limbs, unreduced (requires x < 2^(64k)).
MontgomeryContext::Limbs RawLimbs(const MontgomeryContext& ctx,
                                  const BigInt& x) {
  MontgomeryContext::Limbs out(ctx.limbs64(), 0);
  const std::vector<uint32_t>& limbs32 = x.Limbs();
  for (size_t i = 0; i < limbs32.size(); ++i) {
    out[i / 2] |= uint64_t{limbs32[i]} << (32 * (i % 2));
  }
  return out;
}

/// Euler's criterion mod an odd prime p: x^((p-1)/2) is 1 for a nonzero
/// square, p - 1 for a non-square and 0 for x = 0 mod p.
int EulerSymbol(const BigInt& x, const BigInt& p) {
  BigInt r = x.PowMod((p - BigInt(1)) >> 1, p);
  if (r.IsZero()) return 0;
  return r == BigInt(1) ? 1 : -1;
}

TEST(JacobiDiffTest, MatchesEulerCriterionInEveryPedersenGroup) {
  Drbg drbg(uint64_t{0x1ac0b1});
  struct Group {
    const PedersenParams& params;
    int samples;  // Euler costs one full exponentiation per sample.
  };
  for (const Group& group : {Group{PedersenParams::Test256(), 10000},
                             Group{PedersenParams::Bench512(), 10000},
                             Group{PedersenParams::Standard1536(), 500}}) {
    const BigInt& p = group.params.p;
    auto ctx = MontgomeryContext::Shared(p);
    ASSERT_TRUE(ctx.ok());
    const size_t bits = p.BitLength();
    auto jacobi = [&](const BigInt& x) {
      return (*ctx)->Jacobi(RawLimbs(**ctx, x));
    };
    int non_squares = 0;
    for (int i = 0; i < group.samples; ++i) {
      BigInt x = drbg.RandomBelow(p);
      const int want = EulerSymbol(x, p);
      ASSERT_EQ(jacobi(x), want) << bits << "-bit sample " << i;
      // The Montgomery form carries the same symbol (R is a square).
      ASSERT_EQ((*ctx)->Jacobi((*ctx)->PackMont(x)), want)
          << bits << "-bit sample " << i << " in Montgomery form";
      if (want < 0) ++non_squares;
    }
    EXPECT_GT(non_squares, group.samples / 3) << bits;
    EXPECT_LT(non_squares, 2 * group.samples / 3) << bits;

    EXPECT_EQ(jacobi(BigInt(0)), 0) << bits;
    EXPECT_EQ(jacobi(BigInt(1)), 1) << bits;
    EXPECT_EQ(jacobi(p - BigInt(1)), -1) << bits << ": p = 3 mod 4";
    EXPECT_EQ(jacobi(BigInt(4)), 1) << bits;
    EXPECT_EQ(jacobi(p), 0) << bits;
    const BigInt limit = BigInt(1) << (64 * (*ctx)->limbs64());
    for (int i = 0; i < 50; ++i) {
      BigInt x = drbg.RandomBelow(p);
      EXPECT_EQ(jacobi(x.MulMod(x, p)), x.IsZero() ? 0 : 1) << bits;
      // Unreduced inputs in [p, 2^(64k)).
      BigInt above = p + drbg.RandomBelow(limit - p);
      EXPECT_EQ(jacobi(above), EulerSymbol(above, p)) << bits;
    }
  }
}

TEST(JacobiDiffTest, CompositeModulusIsProductOfLegendreSymbols) {
  Drbg drbg(uint64_t{0x1ac0b2});
  for (size_t half : {40u, 128u, 200u}) {
    BigInt p1 = GeneratePrime(half, drbg);
    BigInt p2 = GeneratePrime(half + 9, drbg);
    BigInt n = p1 * p2;
    auto ctx = MontgomeryContext::Create(n);
    ASSERT_TRUE(ctx.ok());
    for (int i = 0; i < 300; ++i) {
      BigInt x = i == 0 ? p1 : drbg.RandomBelow(n);
      EXPECT_EQ(ctx->Jacobi(RawLimbs(*ctx, x)),
                EulerSymbol(x, p1) * EulerSymbol(x, p2))
          << n.BitLength() << "-bit modulus, sample " << i;
    }
  }
}

// ------------------------------------------ batched range-proof verification
//
// VerifyRange checks all bits of a proof in one small-exponent batch plus a
// per-bit sign check; zkp_internal::VerifyRangePerBit (VerifyBit on every
// bit) is its oracle and must agree on every transcript.

TEST(RangeBatchDiffTest, HonestProofsAgreeAtEveryWidth) {
  const PedersenParams& params = PedersenParams::Test256();
  Drbg drbg(uint64_t{0xba7c});
  for (size_t bits = 1; bits <= 18; ++bits) {
    const BigInt top = (BigInt(1) << bits) - BigInt(1);
    for (const BigInt& m : {BigInt(0), BigInt(1), top}) {
      auto o = PedersenCommitFresh(params, m, drbg);
      auto proof =
          ProveRange(params, o.commitment, m, o.randomness, bits, drbg);
      ASSERT_TRUE(proof.ok());
      EXPECT_TRUE(
          zkp_internal::VerifyRangePerBit(params, o.commitment, *proof, bits));
      EXPECT_TRUE(VerifyRange(params, o.commitment, *proof, bits))
          << bits << " bits, m = " << m.ToDecimalString();
    }
  }
}

TEST(RangeBatchDiffTest, TamperedFieldsAgreeWithPerBitVerifier) {
  const PedersenParams& params = PedersenParams::Test256();
  const BigInt& p = params.p;
  const BigInt& q = params.q;
  Drbg drbg(uint64_t{0x7a3e});
  constexpr size_t kBits = 5;
  auto o = PedersenCommitFresh(params, BigInt(19), drbg);
  auto honest =
      ProveRange(params, o.commitment, BigInt(19), o.randomness, kBits, drbg);
  ASSERT_TRUE(honest.ok());

  struct Tamper {
    const char* name;
    std::function<BigInt(const BigInt&)> apply;
  };
  const Tamper kTampers[] = {
      {"random", [&](const BigInt&) { return drbg.RandomBelow(p); }},
      {"+1", [](const BigInt& x) { return x + BigInt(1); }},
      {"p-x", [&](const BigInt& x) { return p - x; }},
      {"0", [](const BigInt&) { return BigInt(0); }},
      {"+p", [&](const BigInt& x) { return x + p; }},
      // Same residue mod q: exponent fields keep verifying on both paths.
      {"+q", [&](const BigInt& x) { return x + q; }},
  };
  using FieldRef = BigInt BitProof::*;
  const std::pair<const char*, FieldRef> kFields[] = {
      {"t0", &BitProof::t0}, {"t1", &BitProof::t1}, {"e0", &BitProof::e0},
      {"e1", &BitProof::e1}, {"z0", &BitProof::z0}, {"z1", &BitProof::z1},
  };
  int accepted = 0;
  auto compare = [&](const RangeProof& proof, const std::string& what) {
    const bool oracle =
        zkp_internal::VerifyRangePerBit(params, o.commitment, proof, kBits);
    EXPECT_EQ(VerifyRange(params, o.commitment, proof, kBits), oracle)
        << what;
    if (oracle) ++accepted;
  };
  for (size_t i = 0; i < kBits; ++i) {
    for (const Tamper& tamper : kTampers) {
      for (const auto& [name, ref] : kFields) {
        RangeProof tampered = *honest;
        BigInt& v = tampered.bit_proofs[i].*ref;
        v = tamper.apply(v);
        compare(tampered, "bit " + std::to_string(i) + " " + name + " " +
                              tamper.name);
      }
      RangeProof tampered = *honest;
      BigInt& c = tampered.bit_commitments[i].c;
      c = tamper.apply(c);
      compare(tampered, "bit " + std::to_string(i) + " C " + tamper.name);
    }
  }
  // e0 + q, e1 + q, z0 + q and z1 + q leave every equation intact.
  EXPECT_EQ(accepted, static_cast<int>(4 * kBits));
}

TEST(RangeBatchDiffTest, NonResidueTranscriptsAgreeWithPerBitVerifier) {
  const PedersenParams& params = PedersenParams::Test256();
  Drbg drbg(uint64_t{0x5165});
  int accepted = 0;
  for (int i = 0; i < 200; ++i) {
    PedersenCommitment statement;
    RangeProof proof = CraftNonResidueRange(params, drbg, &statement);
    const bool e0_odd = proof.bit_proofs[0].e0.IsOdd();
    EXPECT_EQ(zkp_internal::VerifyRangePerBit(params, statement, proof, 1),
              e0_odd)
        << "transcript " << i;
    EXPECT_EQ(VerifyRange(params, statement, proof, 1), e0_odd)
        << "transcript " << i;
    if (e0_odd) ++accepted;
  }
  EXPECT_GT(accepted, 60);
  EXPECT_LT(accepted, 140);
}

/// ProveBit as it was before its simulator went fixed-base: the simulated
/// nonce commitment is h^z * y^(q - e), one variable-base exponentiation of
/// the branch statement y.
BitProof ProveBitPowNeg(const PedersenParams& params,
                        const PedersenCommitment& commitment, int bit,
                        const BigInt& r, Drbg& drbg) {
  const PedersenAccel& accel = GetPedersenAccel(params);
  BigInt y0 = commitment.c;
  BigInt y1 = commitment.c.MulMod(accel.g_inv, params.p);
  auto pow_neg = [&](const BigInt& y, const BigInt& e) {
    return y.PowMod(e.IsZero() ? BigInt(0) : params.q - e, params.p);
  };
  BitProof proof;
  BigInt w = drbg.RandomBelow(params.q);
  if (bit == 0) {
    proof.t0 = accel.h.PowMod(w);
    proof.e1 = drbg.RandomBelow(params.q);
    proof.z1 = drbg.RandomBelow(params.q);
    proof.t1 =
        accel.h.PowMod(proof.z1).MulMod(pow_neg(y1, proof.e1), params.p);
    BigInt e =
        zkp_internal::BitChallenge(params, commitment.c, proof.t0, proof.t1);
    proof.e0 = e.SubMod(proof.e1, params.q);
    proof.z0 = (w + proof.e0 * r.Mod(params.q)).Mod(params.q);
  } else {
    proof.t1 = accel.h.PowMod(w);
    proof.e0 = drbg.RandomBelow(params.q);
    proof.z0 = drbg.RandomBelow(params.q);
    proof.t0 =
        accel.h.PowMod(proof.z0).MulMod(pow_neg(y0, proof.e0), params.p);
    BigInt e =
        zkp_internal::BitChallenge(params, commitment.c, proof.t0, proof.t1);
    proof.e1 = e.SubMod(proof.e0, params.q);
    proof.z1 = (w + proof.e1 * r.Mod(params.q)).Mod(params.q);
  }
  return proof;
}

/// ProveRange over ProveBitPowNeg: the same randomness draws in the same
/// order as ProveRange.
RangeProof ProveRangePowNeg(const PedersenParams& params, const BigInt& m,
                            const BigInt& r, size_t num_bits, Drbg& drbg) {
  std::vector<BigInt> bit_rand(num_bits);
  BigInt weighted_tail(0);
  for (size_t i = 1; i < num_bits; ++i) {
    bit_rand[i] = drbg.RandomBelow(params.q);
    weighted_tail = weighted_tail.AddMod(
        (BigInt(1) << i).MulMod(bit_rand[i], params.q), params.q);
  }
  bit_rand[0] = r.Mod(params.q).SubMod(weighted_tail, params.q);
  RangeProof proof;
  for (size_t i = 0; i < num_bits; ++i) {
    int bit = m.Bit(i) ? 1 : 0;
    PedersenCommitment ci = PedersenCommit(params, BigInt(bit), bit_rand[i]);
    proof.bit_proofs.push_back(
        ProveBitPowNeg(params, ci, bit, bit_rand[i], drbg));
    proof.bit_commitments.push_back(ci);
  }
  return proof;
}

TEST(RangeBatchDiffTest, FixedBaseSimulatorMatchesPowNegByteForByte) {
  const PedersenParams& params = PedersenParams::Test256();
  constexpr size_t kBits = 16;
  Drbg values(uint64_t{0x51a1});
  Drbg fixed_base(uint64_t{0x9e0}), pow_neg(uint64_t{0x9e0});
  for (int i = 0; i < 200; ++i) {
    BigInt m = values.RandomBelow(BigInt(1) << kBits);
    auto o = PedersenCommitFresh(params, m, values);
    auto got =
        ProveRange(params, o.commitment, m, o.randomness, kBits, fixed_base);
    ASSERT_TRUE(got.ok());
    RangeProof want = ProveRangePowNeg(params, m, o.randomness, kBits, pow_neg);
    for (size_t b = 0; b < kBits; ++b) {
      const BitProof& g = got->bit_proofs[b];
      const BitProof& w = want.bit_proofs[b];
      ASSERT_EQ(got->bit_commitments[b].c.ToBytes(),
                want.bit_commitments[b].c.ToBytes());
      for (auto ref : {&BitProof::t0, &BitProof::t1, &BitProof::e0,
                       &BitProof::e1, &BitProof::z0, &BitProof::z1}) {
        ASSERT_EQ((g.*ref).ToBytes(), (w.*ref).ToBytes())
            << "value " << i << " bit " << b;
      }
    }
  }
}


// ------------------------------------------------------ modular inverse

/// A random modulus of exactly `bits` bits with the requested parity.
BigInt RandomModulus(Drbg& drbg, size_t bits, bool odd) {
  BigInt m = drbg.RandomBits(bits - 1) + (BigInt(1) << (bits - 1));
  if (m.IsOdd() != odd) m = m + BigInt(1);
  if (m.BitLength() != bits) m = m - BigInt(2);  // 2^bits - 1 + 1 overflowed.
  return m;
}

/// InvMod and the Euclid oracle agree on `a` mod `m`: the same verdict,
/// the same inverse, and a checked product when one exists.
void ExpectInvModAgrees(const BigInt& a, const BigInt& m) {
  auto fast = a.InvMod(m);
  auto slow = bigint_internal::InvModEuclid(a, m);
  ASSERT_EQ(fast.ok(), slow.ok())
      << a.ToHexString() << " mod " << m.ToHexString();
  if (!fast.ok()) {
    EXPECT_EQ(fast.status().code(), StatusCode::kInvalidArgument);
    return;
  }
  ASSERT_EQ(*fast, *slow) << a.ToHexString() << " mod " << m.ToHexString();
  EXPECT_TRUE(*fast >= BigInt(0) && *fast < m);
  EXPECT_EQ(a.MulMod(*fast, m), BigInt(1).Mod(m));
}

TEST(InvModDiffTest, RandomOperandsAgreeWithEuclidAtEveryWidth) {
  // 10 000 operands in all, odd and even moduli alternating, a fresh
  // modulus every 25 operands. One operand in eight is negative and one
  // in eight is drawn wider than m; with an even modulus about half the
  // operands are even, so gcd != 1 comes up as often as an inverse.
  Drbg drbg(uint64_t{0x1a7});
  size_t checked = 0, refused = 0;
  for (auto [bits, count] : {std::pair<size_t, size_t>{64, 4000},
                             {256, 3000},
                             {512, 2000},
                             {1024, 700},
                             {2048, 300}}) {
    BigInt m;
    for (size_t i = 0; i < count; ++i) {
      if (i % 25 == 0) m = RandomModulus(drbg, bits, (i / 25) % 2 == 0);
      BigInt a;
      switch (i % 8) {
        case 0:
          a = -drbg.RandomBelow(m);
          break;
        case 1:
          a = drbg.RandomBits(bits + 40);
          break;
        default:
          a = drbg.RandomBelow(m);
      }
      ExpectInvModAgrees(a, m);
      if (HasFatalFailure()) return;
      ++checked;
      if (!a.InvMod(m).ok()) ++refused;
    }
  }
  EXPECT_EQ(checked, 10000u);
  EXPECT_GT(refused, 1000u);  // The gcd != 1 path ran.
  EXPECT_LT(refused, 5000u);
}

TEST(InvModDiffTest, EdgeOperands) {
  Drbg drbg(uint64_t{0xed6e});
  for (size_t bits : {2u, 3u, 31u, 32u, 33u, 63u, 64u, 65u, 96u, 127u, 128u,
                      129u, 512u}) {
    for (bool odd : {true, false}) {
      BigInt m = RandomModulus(drbg, bits, odd);
      for (const BigInt& a :
           {BigInt(1), m - BigInt(1), m + BigInt(1), m + m - BigInt(1),
            m * BigInt(5) + BigInt(3), BigInt(-1), -m + BigInt(1),
            -(m * BigInt(3)) - BigInt(2), BigInt(2), BigInt(3), m, BigInt(0),
            -m}) {
        ExpectInvModAgrees(a, m);
        if (HasFatalFailure()) return;
      }
    }
  }
  EXPECT_EQ(*BigInt(1).InvMod(BigInt(7)), BigInt(1));
  EXPECT_EQ(*BigInt(6).InvMod(BigInt(7)), BigInt(6));
  EXPECT_EQ(*BigInt(-1).InvMod(BigInt(7)), BigInt(6));
  EXPECT_EQ(*BigInt(15).InvMod(BigInt(7)), BigInt(1));
  EXPECT_EQ(*BigInt(1).InvMod(BigInt(2)), BigInt(1));
  EXPECT_EQ(*BigInt(3).InvMod(BigInt(8)), BigInt(3));
  // Limb-width moduli: the largest odd 32- and 64-bit values and their
  // neighbours across the 32- and 64-bit limb boundaries.
  for (const BigInt& m :
       {BigInt(uint64_t{0xffffffffu}, true), BigInt(uint64_t{1} << 32, true),
        BigInt(uint64_t{0xffffffffffffffffu}, true),
        (BigInt(1) << 64) + BigInt(1), (BigInt(1) << 128) - BigInt(1),
        (BigInt(1) << 128) + BigInt(51)}) {
    for (uint64_t a : {uint64_t{2}, uint64_t{3}, uint64_t{0x10001},
                       uint64_t{0xfffffffeu}, uint64_t{0xfffffffffffffffdu}}) {
      ExpectInvModAgrees(BigInt(a, true), m);
      ExpectInvModAgrees(m - BigInt(a, true), m);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(InvModDiffTest, NoInverseIsInvalidArgument) {
  Drbg drbg(uint64_t{3});
  const BigInt p = GeneratePrime(128, drbg);
  const BigInt q = GenerateDistinctPrime(128, p, drbg);
  const BigInt n = p * q;
  for (const auto& [a, m] : std::vector<std::pair<BigInt, BigInt>>{
           {BigInt(6), BigInt(9)},
           {BigInt(0), BigInt(7)},
           {BigInt(4), BigInt(10)},
           {BigInt(5), BigInt(10)},
           {BigInt(3), BigInt(1)},
           {p * BigInt(5), n},
           {q, n},
           {-q, n},
           {n - p, n},
           {p, p},
           {p + p, (p - BigInt(1)) * BigInt(2)},
           {BigInt(65537) * BigInt(3), (p - BigInt(1)) * BigInt(65537)}}) {
    auto inv = a.InvMod(m);
    ASSERT_FALSE(inv.ok()) << a.ToHexString() << " mod " << m.ToHexString();
    EXPECT_EQ(inv.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(bigint_internal::InvModEuclid(a, m).ok());
  }
  // A modulus that is not positive has no residues to invert in.
  EXPECT_EQ(BigInt(3).InvMod(BigInt(0)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BigInt(3).InvMod(BigInt(-7)).status().code(),
            StatusCode::kInvalidArgument);
}

// -------------------------------------------------------------- RSA-CRT

class RsaCrtDiffTest : public ::testing::TestWithParam<size_t> {
 protected:
  RsaKeyPair Key() const {
    Drbg keygen(uint64_t{0x45a} + GetParam());
    return RsaGenerateKey(GetParam(), keygen).value();
  }
};

TEST_P(RsaCrtDiffTest, CrtMatchesFullExponentOnAThousandMessages) {
  const RsaKeyPair key = Key();
  EXPECT_EQ(key.p * key.q, key.pub.n);
  EXPECT_EQ(key.dp, key.d.Mod(key.p - BigInt(1)));
  EXPECT_EQ(key.dq, key.d.Mod(key.q - BigInt(1)));
  EXPECT_EQ(key.q.MulMod(key.qinv, key.p), BigInt(1));
  Drbg drbg(uint64_t{0x5e7});
  for (int i = 0; i < 1000; ++i) {
    const Bytes message = drbg.Generate(1 + i % 48);
    const BigInt fdh = RsaFdh(key.pub, message);
    auto sig = RsaSign(key, message);
    ASSERT_TRUE(sig.ok()) << i;
    ASSERT_EQ(*sig, rsa_internal::PrivateOpNoCrt(key, fdh)
                        .ToBytesPadded(key.pub.ModulusBytes())
                        .value())
        << "message " << i;
    const BigInt blinded = RsaBlind(key.pub, message, drbg)->blinded_message;
    auto blind_sig = RsaBlindSign(key, blinded);
    ASSERT_TRUE(blind_sig.ok()) << i;
    ASSERT_EQ(*blind_sig, rsa_internal::PrivateOpNoCrt(key, blinded))
        << "message " << i;
  }
  // The edges of Z_n, and inputs the signer must reduce first.
  for (const BigInt& c : {BigInt(0), BigInt(1), key.pub.n - BigInt(1), key.p,
                          key.q, key.pub.n + BigInt(5), BigInt(-3)}) {
    auto sig = RsaBlindSign(key, c);
    ASSERT_TRUE(sig.ok());
    EXPECT_EQ(*sig, rsa_internal::PrivateOpNoCrt(key, c));
  }
}

TEST_P(RsaCrtDiffTest, BlindSignUnblindVerifyRoundTrips) {
  const RsaKeyPair key = Key();
  Drbg drbg(uint64_t{0xb11d});
  for (int i = 0; i < 50; ++i) {
    const Bytes serial = drbg.Generate(32);
    auto blinding = RsaBlind(key.pub, serial, drbg);
    ASSERT_TRUE(blinding.ok());
    auto blind_sig = RsaBlindSign(key, blinding->blinded_message);
    ASSERT_TRUE(blind_sig.ok());
    const Bytes sig = RsaUnblind(key.pub, *blind_sig, blinding->unblinder);
    EXPECT_TRUE(RsaVerify(key.pub, serial, sig)) << i;
    EXPECT_EQ(sig, *RsaSign(key, serial)) << i;
  }
}

TEST_P(RsaCrtDiffTest, CorruptedCrtValueIsAnErrorNotASignature) {
  const RsaKeyPair good = Key();
  const Bytes message = ToBytes("prever crt fault probe");
  const BigInt blinded = RsaFdh(good.pub, message);
  for (BigInt RsaKeyPair::*field :
       {&RsaKeyPair::dp, &RsaKeyPair::dq, &RsaKeyPair::qinv}) {
    RsaKeyPair bad = good;
    bad.*field = bad.*field + BigInt(2);
    auto sig = RsaSign(bad, message);
    EXPECT_EQ(sig.status().code(), StatusCode::kInternal);
    auto blind_sig = RsaBlindSign(bad, blinded);
    EXPECT_EQ(blind_sig.status().code(), StatusCode::kInternal);
  }
  RsaKeyPair no_crt;
  no_crt.pub = good.pub;
  no_crt.d = good.d;
  EXPECT_EQ(RsaSign(no_crt, message).status().code(),
            StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(Widths, RsaCrtDiffTest, ::testing::Values(512, 1024));

}  // namespace
}  // namespace prever::crypto
