#include "crypto/montgomery.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/drbg.h"
#include "crypto/prime.h"

namespace prever::crypto {
namespace {

TEST(MontgomeryTest, RejectsBadModuli) {
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(8)).ok());   // Even.
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(1)).ok());   // Too small.
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(0)).ok());
  EXPECT_FALSE(MontgomeryContext::Create(BigInt(-7)).ok());  // Negative.
  EXPECT_TRUE(MontgomeryContext::Create(BigInt(7)).ok());
}

TEST(MontgomeryTest, DomainRoundTrip) {
  auto m = *BigInt::FromDecimal("1000000000000000000000000000057");
  auto ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  for (int64_t v : {int64_t{0}, int64_t{1}, int64_t{42}, int64_t{1} << 60}) {
    BigInt x(v);
    EXPECT_EQ(ctx->FromMontgomery(ctx->ToMontgomery(x)), x) << v;
  }
}

TEST(MontgomeryTest, MulMontMatchesMulMod) {
  prever::Rng rng(3);
  auto m = *BigInt::FromDecimal("123456789123456789123456789123456789123");
  auto ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::FromBytes(rng.NextBytes(16)).Mod(m);
    BigInt b = BigInt::FromBytes(rng.NextBytes(16)).Mod(m);
    BigInt got = ctx->FromMontgomery(
        ctx->MulMont(ctx->ToMontgomery(a), ctx->ToMontgomery(b)));
    EXPECT_EQ(got, a.MulMod(b, m));
  }
}

// Property: Montgomery PowMod agrees with the classic square-and-multiply
// over random moduli of many limb widths.
class MontgomeryPowProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MontgomeryPowProperty, MatchesClassicPowMod) {
  prever::Rng rng(GetParam());
  for (int iter = 0; iter < 10; ++iter) {
    size_t mod_bytes = 4 + rng.NextBelow(48);
    BigInt m = BigInt::FromBytes(rng.NextBytes(mod_bytes));
    if (m.IsEven()) m = m + BigInt(1);
    if (m <= BigInt(1)) continue;
    BigInt base = BigInt::FromBytes(rng.NextBytes(mod_bytes + 4));
    BigInt exp = BigInt::FromBytes(rng.NextBytes(8));
    auto ctx = MontgomeryContext::Create(m);
    ASSERT_TRUE(ctx.ok());
    BigInt fast = ctx->PowMod(base, exp);
    // Classic reference: square-and-multiply with MulMod.
    BigInt b = base.Mod(m);
    BigInt ref(1);
    for (size_t i = exp.BitLength(); i-- > 0;) {
      ref = ref.MulMod(ref, m);
      if (exp.Bit(i)) ref = ref.MulMod(b, m);
    }
    EXPECT_EQ(fast, ref) << "m=" << m.ToDecimalString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MontgomeryPowProperty,
                         ::testing::Range(uint64_t{1}, uint64_t{9}));

TEST(MontgomeryTest, FermatWithLargePrime) {
  Drbg drbg(uint64_t{5});
  BigInt p = GeneratePrime(256, drbg);
  auto ctx = MontgomeryContext::Create(p);
  ASSERT_TRUE(ctx.ok());
  BigInt a = drbg.RandomBelow(p - BigInt(2)) + BigInt(2);
  EXPECT_EQ(ctx->PowMod(a, p - BigInt(1)), BigInt(1));
}

TEST(MontgomeryTest, ZeroAndOneExponents) {
  auto m = *BigInt::FromDecimal("99999999999999999999999999977");
  auto ctx = MontgomeryContext::Create(m);
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(ctx->PowMod(BigInt(12345), BigInt(0)), BigInt(1));
  EXPECT_EQ(ctx->PowMod(BigInt(12345), BigInt(1)), BigInt(12345));
  EXPECT_EQ(ctx->PowMod(BigInt(0), BigInt(5)), BigInt(0));
}

// The interleaved multi-exponentiation must equal the product of separate
// exponentiations, for every base count up to 64 and exponents from zero
// through wider than the modulus (several windows, distinct lengths).
TEST(MontgomeryTest, MultiPowMatchesProductOfPowMods) {
  Drbg drbg(uint64_t{0x57a5});
  for (size_t mod_bits : {64u, 200u, 256u, 520u}) {
    BigInt m = drbg.RandomBits(mod_bits);
    if (m.IsEven()) m = m + BigInt(1);
    auto ctx = MontgomeryContext::Create(m);
    ASSERT_TRUE(ctx.ok());
    for (size_t count = 1; count <= 64; ++count) {
      std::vector<MontgomeryContext::Limbs> bases;
      std::vector<BigInt> exps;
      BigInt expected(1);
      for (size_t i = 0; i < count; ++i) {
        BigInt base = drbg.RandomBelow(m);
        BigInt exp;
        switch (i % 5) {
          case 0: exp = drbg.RandomBits(128); break;
          case 1: exp = drbg.RandomBits(mod_bits); break;
          case 2: exp = BigInt(i); break;  // Zero and tiny exponents.
          case 3: exp = drbg.RandomBits(mod_bits + 40); break;
          default: exp = drbg.RandomBits(1 + i * 7); break;
        }
        expected = expected.MulMod(ctx->PowMod(base, exp), m);
        bases.push_back(ctx->PackMont(base));
        exps.push_back(std::move(exp));
      }
      EXPECT_EQ(ctx->UnpackMont(ctx->MultiPowMont(bases, exps)), expected)
          << mod_bits << "-bit modulus, " << count << " bases";
    }
    // All-zero exponents give one.
    std::vector<MontgomeryContext::Limbs> bases(3, ctx->PackMont(BigInt(7)));
    EXPECT_EQ(ctx->UnpackMont(ctx->MultiPowMont(bases, {0, 0, 0})),
              BigInt(1));
  }
}

}  // namespace
}  // namespace prever::crypto
