#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/paillier.h"
#include "crypto/pedersen.h"
#include "crypto/prime.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "crypto/shamir.h"

namespace prever::crypto {
namespace {

// ---------------------------------------------------------------- SHA-256

TEST(Sha256Test, Fips180Vectors) {
  // NIST FIPS 180-4 test vectors.
  EXPECT_EQ(HexEncode(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HexEncode(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(
      HexEncode(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexEncode(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes data = ToBytes("the quick brown fox jumps over the lazy dog");
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.Update(data.data(), split);
    h.Update(data.data() + split, data.size() - split);
    EXPECT_EQ(h.Finish(), Sha256::Hash(data)) << split;
  }
}

// ------------------------------------------------------------------ HMAC

TEST(HmacTest, Rfc4231Vector1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha256(key, ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Vector2) {
  EXPECT_EQ(
      HexEncode(HmacSha256(ToBytes("Jefe"),
                           ToBytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 test case 6: 131-byte key.
  Bytes key(131, 0xaa);
  EXPECT_EQ(HexEncode(HmacSha256(
                key, ToBytes("Test Using Larger Than Block-Size Key - "
                             "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HkdfTest, ProducesRequestedLengthAndIsDeterministic) {
  Bytes out1 = Hkdf(ToBytes("salt"), ToBytes("ikm"), ToBytes("info"), 77);
  Bytes out2 = Hkdf(ToBytes("salt"), ToBytes("ikm"), ToBytes("info"), 77);
  EXPECT_EQ(out1.size(), 77u);
  EXPECT_EQ(out1, out2);
  Bytes out3 = Hkdf(ToBytes("salt"), ToBytes("ikm"), ToBytes("other"), 77);
  EXPECT_NE(out1, out3);
}

// ------------------------------------------------------------------ DRBG

TEST(DrbgTest, DeterministicForSeed) {
  Drbg a(uint64_t{42}), b(uint64_t{42});
  EXPECT_EQ(a.Generate(64), b.Generate(64));
}

TEST(DrbgTest, DifferentSeedsDiverge) {
  Drbg a(uint64_t{1}), b(uint64_t{2});
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, ReseedChangesStream) {
  Drbg a(uint64_t{42}), b(uint64_t{42});
  b.Reseed(ToBytes("extra entropy"));
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, RandomBitsExactWidth) {
  Drbg d(uint64_t{7});
  for (size_t bits : {1u, 7u, 8u, 9u, 64u, 127u, 256u}) {
    EXPECT_EQ(d.RandomBits(bits).BitLength(), bits);
  }
}

TEST(DrbgTest, RandomBelowInRange) {
  Drbg d(uint64_t{9});
  BigInt bound(1000);
  for (int i = 0; i < 200; ++i) {
    BigInt v = d.RandomBelow(bound);
    EXPECT_LT(v, bound);
    EXPECT_FALSE(v.IsNegative());
  }
}

TEST(DrbgTest, RandomNonZeroBelowNeverZero) {
  Drbg d(uint64_t{11});
  BigInt bound(2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(d.RandomNonZeroBelow(bound), BigInt(1));
  }
}

// ----------------------------------------------------------------- Primes

TEST(PrimeTest, KnownPrimesAndComposites) {
  Drbg d(uint64_t{13});
  EXPECT_TRUE(IsProbablePrime(BigInt(2), d));
  EXPECT_TRUE(IsProbablePrime(BigInt(3), d));
  EXPECT_TRUE(IsProbablePrime(BigInt(65537), d));
  EXPECT_TRUE(IsProbablePrime(*BigInt::FromDecimal("1000000007"), d));
  EXPECT_FALSE(IsProbablePrime(BigInt(1), d));
  EXPECT_FALSE(IsProbablePrime(BigInt(561), d));    // Carmichael number.
  EXPECT_FALSE(IsProbablePrime(BigInt(41041), d));  // Carmichael number.
  EXPECT_FALSE(IsProbablePrime(BigInt(1) << 64, d));
}

TEST(PrimeTest, GeneratedPrimeHasExactBitsAndIsOdd) {
  Drbg d(uint64_t{17});
  for (size_t bits : {64u, 128u, 256u}) {
    BigInt p = GeneratePrime(bits, d);
    EXPECT_EQ(p.BitLength(), bits);
    EXPECT_TRUE(p.IsOdd());
    EXPECT_TRUE(IsProbablePrime(p, d));
  }
}

TEST(PrimeTest, DistinctPrimeAvoidsGiven) {
  Drbg d(uint64_t{19});
  BigInt p = GeneratePrime(64, d);
  BigInt q = GenerateDistinctPrime(64, p, d);
  EXPECT_NE(p, q);
}

// -------------------------------------------------------------------- RSA

class RsaTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    drbg_ = new Drbg(uint64_t{21});
    key_ = new RsaKeyPair(RsaGenerateKey(512, *drbg_).value());
  }
  static Drbg* drbg_;
  static RsaKeyPair* key_;
};
Drbg* RsaTest::drbg_ = nullptr;
RsaKeyPair* RsaTest::key_ = nullptr;

TEST_F(RsaTest, SignVerifyRoundTrip) {
  Bytes msg = ToBytes("update: worker w1 completed task t9");
  Bytes sig = *RsaSign(*key_, msg);
  EXPECT_TRUE(RsaVerify(key_->pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedMessage) {
  Bytes msg = ToBytes("original");
  Bytes sig = *RsaSign(*key_, msg);
  EXPECT_FALSE(RsaVerify(key_->pub, ToBytes("tampered"), sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  Bytes msg = ToBytes("msg");
  Bytes sig = *RsaSign(*key_, msg);
  sig[0] ^= 1;
  EXPECT_FALSE(RsaVerify(key_->pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongLengthSignature) {
  Bytes msg = ToBytes("msg");
  Bytes sig = *RsaSign(*key_, msg);
  sig.pop_back();
  EXPECT_FALSE(RsaVerify(key_->pub, msg, sig));
}

TEST_F(RsaTest, BlindSignatureVerifiesLikeDirectSignature) {
  Bytes token = ToBytes("token-serial-123456");
  auto blinded = RsaBlind(key_->pub, token, *drbg_);
  ASSERT_TRUE(blinded.ok());
  // The signer sees only the blinded value.
  EXPECT_NE(blinded->blinded_message, RsaFdh(key_->pub, token));
  BigInt blind_sig = *RsaBlindSign(*key_, blinded->blinded_message);
  Bytes sig = RsaUnblind(key_->pub, blind_sig, blinded->unblinder);
  EXPECT_TRUE(RsaVerify(key_->pub, token, sig));
  // And it is byte-identical to a direct signature (deterministic FDH).
  EXPECT_EQ(sig, *RsaSign(*key_, token));
}

TEST_F(RsaTest, BlindingIsRandomized) {
  Bytes token = ToBytes("token");
  auto b1 = RsaBlind(key_->pub, token, *drbg_);
  auto b2 = RsaBlind(key_->pub, token, *drbg_);
  ASSERT_TRUE(b1.ok() && b2.ok());
  // Two blindings of the same token look unrelated to the signer: this is
  // what makes issued tokens unlinkable to spent tokens (Separ §5).
  EXPECT_NE(b1->blinded_message, b2->blinded_message);
}

TEST(RsaKeygenTest, RejectsBadModulusBits) {
  Drbg d(uint64_t{23});
  EXPECT_FALSE(RsaGenerateKey(100, d).ok());  // Below minimum.
  EXPECT_FALSE(RsaGenerateKey(513, d).ok());  // Odd.
}

// --------------------------------------------------------------- Paillier

class PaillierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    drbg_ = new Drbg(uint64_t{31});
    key_ = new PaillierKeyPair(PaillierGenerateKey(512, *drbg_).value());
  }
  static Drbg* drbg_;
  static PaillierKeyPair* key_;
};
Drbg* PaillierTest::drbg_ = nullptr;
PaillierKeyPair* PaillierTest::key_ = nullptr;

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (int64_t m : {int64_t{0}, int64_t{1}, int64_t{40}, int64_t{123456789}}) {
    auto ct = PaillierEncrypt(key_->pub, BigInt(m), *drbg_);
    ASSERT_TRUE(ct.ok());
    EXPECT_EQ(*PaillierDecrypt(*key_, *ct), BigInt(m));
  }
}

TEST_F(PaillierTest, SignedRoundTrip) {
  for (int64_t m : {int64_t{0}, int64_t{-1}, int64_t{-40}, int64_t{7},
                    int64_t{-123456789}}) {
    auto ct = PaillierEncryptSigned(key_->pub, m, *drbg_);
    ASSERT_TRUE(ct.ok());
    EXPECT_EQ(*PaillierDecryptSigned(*key_, *ct), m);
  }
}

TEST_F(PaillierTest, EncryptionIsProbabilistic) {
  auto c1 = PaillierEncrypt(key_->pub, BigInt(5), *drbg_);
  auto c2 = PaillierEncrypt(key_->pub, BigInt(5), *drbg_);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NE(c1->c, c2->c);  // Same plaintext, different ciphertexts.
}

TEST_F(PaillierTest, HomomorphicAdd) {
  auto ca = PaillierEncrypt(key_->pub, BigInt(17), *drbg_);
  auto cb = PaillierEncrypt(key_->pub, BigInt(25), *drbg_);
  ASSERT_TRUE(ca.ok() && cb.ok());
  auto sum = PaillierAdd(key_->pub, *ca, *cb);
  EXPECT_EQ(*PaillierDecrypt(*key_, sum), BigInt(42));
}

TEST_F(PaillierTest, AddPlain) {
  auto ca = PaillierEncrypt(key_->pub, BigInt(30), *drbg_);
  ASSERT_TRUE(ca.ok());
  auto sum = PaillierAddPlain(key_->pub, *ca, BigInt(12));
  EXPECT_EQ(*PaillierDecrypt(*key_, sum), BigInt(42));
}

TEST_F(PaillierTest, AddPlainNegative) {
  auto ca = PaillierEncrypt(key_->pub, BigInt(50), *drbg_);
  ASSERT_TRUE(ca.ok());
  auto sum = PaillierAddPlain(key_->pub, *ca, BigInt(-8));
  EXPECT_EQ(*PaillierDecryptSigned(*key_, sum), 42);
}

TEST_F(PaillierTest, MulPlain) {
  auto ca = PaillierEncrypt(key_->pub, BigInt(6), *drbg_);
  ASSERT_TRUE(ca.ok());
  auto prod = PaillierMulPlain(key_->pub, *ca, BigInt(7));
  EXPECT_EQ(*PaillierDecrypt(*key_, prod), BigInt(42));
}

TEST_F(PaillierTest, RerandomizePreservesPlaintextChangesCiphertext) {
  auto ct = PaillierEncrypt(key_->pub, BigInt(99), *drbg_);
  ASSERT_TRUE(ct.ok());
  auto rr = PaillierRerandomize(key_->pub, *ct, *drbg_);
  ASSERT_TRUE(rr.ok());
  EXPECT_NE(rr->c, ct->c);
  EXPECT_EQ(*PaillierDecrypt(*key_, *rr), BigInt(99));
}

TEST_F(PaillierTest, RejectsOutOfRangePlaintext) {
  EXPECT_FALSE(PaillierEncrypt(key_->pub, key_->pub.n, *drbg_).ok());
  EXPECT_FALSE(PaillierEncrypt(key_->pub, BigInt(-1), *drbg_).ok());
}

TEST_F(PaillierTest, BoundaryPlaintextNMinusOne) {
  // n - 1 is the largest valid plaintext and the signed embedding of -1.
  BigInt n_minus_1 = key_->pub.n - BigInt(1);
  auto ct = PaillierEncrypt(key_->pub, n_minus_1, *drbg_);
  ASSERT_TRUE(ct.ok());
  EXPECT_EQ(*PaillierDecrypt(*key_, *ct), n_minus_1);
  EXPECT_EQ(*PaillierDecryptSigned(*key_, *ct), -1);
}

TEST_F(PaillierTest, HomomorphicAddWrapsAtModulus) {
  // Enc(n-1) + Enc(1) must wrap to Enc(0): plaintexts live in Z_n.
  auto cmax = PaillierEncrypt(key_->pub, key_->pub.n - BigInt(1), *drbg_);
  auto cone = PaillierEncrypt(key_->pub, BigInt(1), *drbg_);
  ASSERT_TRUE(cmax.ok() && cone.ok());
  auto sum = PaillierAdd(key_->pub, *cmax, *cone);
  EXPECT_EQ(*PaillierDecrypt(*key_, sum), BigInt(0));
}

TEST_F(PaillierTest, RejectsModulusSizedAndLargerPlaintexts) {
  // Everything from n upward is out of range, including n^2-sized values a
  // confused caller might pass after mixing up plaintext and ciphertext
  // spaces.
  EXPECT_FALSE(PaillierEncrypt(key_->pub, key_->pub.n + BigInt(1), *drbg_).ok());
  EXPECT_FALSE(PaillierEncrypt(key_->pub, key_->pub.n2, *drbg_).ok());
}

TEST_F(PaillierTest, RejectsOutOfRangeCiphertext) {
  EXPECT_FALSE(PaillierDecrypt(*key_, PaillierCiphertext{key_->pub.n2}).ok());
  EXPECT_FALSE(PaillierDecrypt(*key_, PaillierCiphertext{BigInt(0)}).ok());
}

// Property: sum of k random encrypted values decrypts to the plaintext sum —
// exactly the linear-aggregate constraint path of the RC1 engine.
class PaillierLinearityProperty : public ::testing::TestWithParam<int> {};

TEST_P(PaillierLinearityProperty, EncryptedAggregatesMatchPlain) {
  Drbg drbg(static_cast<uint64_t>(100 + GetParam()));
  auto key = PaillierGenerateKey(256, drbg).value();
  prever::Rng rng(GetParam());
  int64_t expected = 0;
  auto acc = PaillierEncrypt(key.pub, BigInt(0), drbg).value();
  for (int i = 0; i < 10; ++i) {
    int64_t v = rng.NextInRange(0, 1000);
    int64_t w = rng.NextInRange(1, 5);
    expected += v * w;
    auto ct = PaillierEncrypt(key.pub, BigInt(v), drbg).value();
    acc = PaillierAdd(key.pub, acc, PaillierMulPlain(key.pub, ct, BigInt(w)));
  }
  EXPECT_EQ(*PaillierDecryptSigned(key, acc), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaillierLinearityProperty,
                         ::testing::Values(1, 2, 3, 4));

// --------------------------------------------------------------- Pedersen

TEST(PedersenTest, ParamsAreWellFormed) {
  const auto& params = PedersenParams::Test256();
  Drbg d(uint64_t{1});
  EXPECT_TRUE(IsProbablePrime(params.p, d));
  EXPECT_TRUE(IsProbablePrime(params.q, d));
  EXPECT_EQ(params.p, params.q * BigInt(2) + BigInt(1));
  // Generators are in the order-q subgroup.
  EXPECT_EQ(params.g.PowMod(params.q, params.p), BigInt(1));
  EXPECT_EQ(params.h.PowMod(params.q, params.p), BigInt(1));
  EXPECT_NE(params.g, params.h);
}

TEST(PedersenTest, Standard1536GroupOrderChecks) {
  const auto& params = PedersenParams::Standard1536();
  EXPECT_EQ(params.p.BitLength(), 1536u);
  EXPECT_EQ(params.g.PowMod(params.q, params.p), BigInt(1));
  EXPECT_EQ(params.h.PowMod(params.q, params.p), BigInt(1));
}

TEST(PedersenTest, CommitVerifyRoundTrip) {
  const auto& params = PedersenParams::Test256();
  Drbg drbg(uint64_t{41});
  auto opening = PedersenCommitFresh(params, BigInt(40), drbg);
  EXPECT_TRUE(PedersenVerify(params, opening.commitment, BigInt(40),
                             opening.randomness));
  EXPECT_FALSE(PedersenVerify(params, opening.commitment, BigInt(41),
                              opening.randomness));
}

TEST(PedersenTest, HidingDifferentRandomness) {
  const auto& params = PedersenParams::Test256();
  Drbg drbg(uint64_t{43});
  auto o1 = PedersenCommitFresh(params, BigInt(5), drbg);
  auto o2 = PedersenCommitFresh(params, BigInt(5), drbg);
  EXPECT_NE(o1.commitment.c, o2.commitment.c);
}

TEST(PedersenTest, HomomorphicAdd) {
  const auto& params = PedersenParams::Test256();
  Drbg drbg(uint64_t{47});
  auto o1 = PedersenCommitFresh(params, BigInt(30), drbg);
  auto o2 = PedersenCommitFresh(params, BigInt(12), drbg);
  auto sum = PedersenAdd(params, o1.commitment, o2.commitment);
  BigInt r = o1.randomness.AddMod(o2.randomness, params.q);
  EXPECT_TRUE(PedersenVerify(params, sum, BigInt(42), r));
}

TEST(PedersenTest, Scale) {
  const auto& params = PedersenParams::Test256();
  Drbg drbg(uint64_t{53});
  auto o = PedersenCommitFresh(params, BigInt(6), drbg);
  auto scaled = PedersenScale(params, o.commitment, BigInt(7));
  BigInt r = o.randomness.MulMod(BigInt(7), params.q);
  EXPECT_TRUE(PedersenVerify(params, scaled, BigInt(42), r));
}

// ----------------------------------------------------------------- Shamir

TEST(Field61Test, BasicOps) {
  EXPECT_EQ(Field61::Add(Field61::kPrime - 1, 1), 0u);
  EXPECT_EQ(Field61::Sub(0, 1), Field61::kPrime - 1);
  EXPECT_EQ(Field61::Mul(3, 5), 15u);
  EXPECT_EQ(Field61::Pow(2, 61), 1u);  // 2^61 = p + 1 ≡ 1 (mod p).
}

TEST(Field61Test, MulMatchesInt128Reference) {
  prever::Rng rng(61);
  for (int i = 0; i < 1000; ++i) {
    uint64_t a = rng.NextBelow(Field61::kPrime);
    uint64_t b = rng.NextBelow(Field61::kPrime);
    unsigned __int128 expected =
        static_cast<unsigned __int128>(a) * b % Field61::kPrime;
    EXPECT_EQ(Field61::Mul(a, b), static_cast<uint64_t>(expected));
  }
}

TEST(Field61Test, InverseIsCorrect) {
  prever::Rng rng(67);
  for (int i = 0; i < 100; ++i) {
    uint64_t a = 1 + rng.NextBelow(Field61::kPrime - 1);
    EXPECT_EQ(Field61::Mul(a, Field61::Inv(a)), 1u);
  }
}

TEST(ShamirTest, ShareReconstructRoundTrip) {
  prever::Rng rng(71);
  auto shares = ShamirShareSecret(123456789, 5, 3, rng);
  ASSERT_TRUE(shares.ok());
  EXPECT_EQ(shares->size(), 5u);
  EXPECT_EQ(*ShamirReconstruct(*shares), 123456789u);
}

TEST(ShamirTest, AnyThresholdSubsetReconstructs) {
  prever::Rng rng(73);
  auto shares = ShamirShareSecret(40, 5, 3, rng);
  ASSERT_TRUE(shares.ok());
  // All C(5,3) subsets.
  for (size_t i = 0; i < 5; ++i)
    for (size_t j = i + 1; j < 5; ++j)
      for (size_t k = j + 1; k < 5; ++k) {
        std::vector<ShamirShare> subset = {(*shares)[i], (*shares)[j],
                                           (*shares)[k]};
        EXPECT_EQ(*ShamirReconstruct(subset), 40u);
      }
}

TEST(ShamirTest, BelowThresholdRevealsNothingStructural) {
  // With t-1 shares the reconstruction is *wrong* (not an error — any value
  // is consistent), demonstrating the threshold property mechanically.
  prever::Rng rng(79);
  auto shares = ShamirShareSecret(40, 5, 3, rng);
  ASSERT_TRUE(shares.ok());
  std::vector<ShamirShare> two = {(*shares)[0], (*shares)[1]};
  auto value = ShamirReconstruct(two);
  ASSERT_TRUE(value.ok());
  EXPECT_NE(*value, 40u);  // Interpolating a deg-2 poly from 2 points.
}

TEST(ShamirTest, HomomorphicAddition) {
  prever::Rng rng(83);
  auto a = ShamirShareSecret(30, 4, 2, rng);
  auto b = ShamirShareSecret(12, 4, 2, rng);
  ASSERT_TRUE(a.ok() && b.ok());
  auto sum = ShamirAddShares(*a, *b);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*ShamirReconstruct(*sum), 42u);
}

TEST(ShamirTest, ScaleShares) {
  prever::Rng rng(89);
  auto a = ShamirShareSecret(6, 4, 2, rng);
  ASSERT_TRUE(a.ok());
  auto scaled = ShamirScaleShares(*a, 7);
  EXPECT_EQ(*ShamirReconstruct(scaled), 42u);
}

TEST(ShamirTest, ExactlyThresholdSharesSuffice) {
  // t == n: every share is needed; exactly t shares reconstruct, and
  // removing any single one yields a wrong value.
  prever::Rng rng(103);
  auto shares = ShamirShareSecret(777, 4, 4, rng);
  ASSERT_TRUE(shares.ok());
  EXPECT_EQ(*ShamirReconstruct(*shares), 777u);
  for (size_t drop = 0; drop < 4; ++drop) {
    std::vector<ShamirShare> three;
    for (size_t i = 0; i < 4; ++i) {
      if (i != drop) three.push_back((*shares)[i]);
    }
    auto value = ShamirReconstruct(three);
    ASSERT_TRUE(value.ok());
    EXPECT_NE(*value, 777u) << "dropped share " << drop;
  }
}

TEST(ShamirTest, ThresholdOneMeansEveryShareIsTheSecret) {
  // t == 1 degenerates to replication: the polynomial is constant.
  prever::Rng rng(107);
  auto shares = ShamirShareSecret(42, 3, 1, rng);
  ASSERT_TRUE(shares.ok());
  for (const ShamirShare& s : *shares) {
    EXPECT_EQ(*ShamirReconstruct({s}), 42u);
  }
}

TEST(ShamirTest, BoundarySecretsRoundTrip) {
  prever::Rng rng(109);
  for (uint64_t secret : {uint64_t{0}, Field61::kPrime - 1}) {
    auto shares = ShamirShareSecret(secret, 5, 3, rng);
    ASSERT_TRUE(shares.ok());
    EXPECT_EQ(*ShamirReconstruct(*shares), secret);
  }
}

TEST(ShamirTest, InvalidParameters) {
  prever::Rng rng(97);
  EXPECT_FALSE(ShamirShareSecret(1, 3, 0, rng).ok());
  EXPECT_FALSE(ShamirShareSecret(1, 3, 4, rng).ok());
  EXPECT_FALSE(ShamirShareSecret(Field61::kPrime, 3, 2, rng).ok());
}

TEST(ShamirTest, ReconstructRejectsDuplicatePoints) {
  prever::Rng rng(101);
  auto shares = ShamirShareSecret(5, 3, 2, rng);
  ASSERT_TRUE(shares.ok());
  std::vector<ShamirShare> dup = {(*shares)[0], (*shares)[0]};
  EXPECT_FALSE(ShamirReconstruct(dup).ok());
}

TEST(AdditiveShareTest, RoundTrip) {
  prever::Rng rng(103);
  for (size_t n : {1u, 2u, 5u, 16u}) {
    auto shares = AdditiveShare(0xdeadbeefcafebabeULL, n, rng);
    EXPECT_EQ(shares.size(), n);
    EXPECT_EQ(AdditiveReconstruct(shares), 0xdeadbeefcafebabeULL);
  }
}

TEST(AdditiveShareTest, SharesLookRandom) {
  prever::Rng rng(107);
  auto s1 = AdditiveShare(42, 3, rng);
  auto s2 = AdditiveShare(42, 3, rng);
  EXPECT_NE(s1, s2);
}

// Property sweep: share/reconstruct identity across (n, t) grid.
class ShamirGridProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ShamirGridProperty, RoundTrips) {
  auto [n, t] = GetParam();
  prever::Rng rng(static_cast<uint64_t>(n * 100 + t));
  for (int iter = 0; iter < 10; ++iter) {
    uint64_t secret = rng.NextBelow(Field61::kPrime);
    auto shares = ShamirShareSecret(secret, n, t, rng);
    ASSERT_TRUE(shares.ok());
    // Reconstruct from the first t shares.
    std::vector<ShamirShare> subset(shares->begin(), shares->begin() + t);
    EXPECT_EQ(*ShamirReconstruct(subset), secret);
    // And from all n.
    EXPECT_EQ(*ShamirReconstruct(*shares), secret);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShamirGridProperty,
    ::testing::Values(std::make_tuple(1, 1), std::make_tuple(3, 2),
                      std::make_tuple(4, 4), std::make_tuple(7, 3),
                      std::make_tuple(10, 7), std::make_tuple(16, 9)));

}  // namespace
}  // namespace prever::crypto
