#include "crypto/zkp.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/encrypted_engine.h"
#include "token/token.h"

namespace prever::crypto {
namespace {

class ZkpTest : public ::testing::Test {
 protected:
  const PedersenParams& params_ = PedersenParams::Test256();
  Drbg drbg_{uint64_t{1234}};
};

TEST_F(ZkpTest, OpeningProofVerifies) {
  auto opening = PedersenCommitFresh(params_, BigInt(40), drbg_);
  OpeningProof proof = ProveOpening(params_, opening.commitment, BigInt(40),
                                    opening.randomness, drbg_);
  EXPECT_TRUE(VerifyOpening(params_, opening.commitment, proof));
}

TEST_F(ZkpTest, OpeningProofRejectsWrongCommitment) {
  auto o1 = PedersenCommitFresh(params_, BigInt(40), drbg_);
  auto o2 = PedersenCommitFresh(params_, BigInt(41), drbg_);
  OpeningProof proof =
      ProveOpening(params_, o1.commitment, BigInt(40), o1.randomness, drbg_);
  EXPECT_FALSE(VerifyOpening(params_, o2.commitment, proof));
}

TEST_F(ZkpTest, OpeningProofRejectsTamperedResponse) {
  auto o = PedersenCommitFresh(params_, BigInt(7), drbg_);
  OpeningProof proof =
      ProveOpening(params_, o.commitment, BigInt(7), o.randomness, drbg_);
  proof.z1 = proof.z1.AddMod(BigInt(1), params_.q);
  EXPECT_FALSE(VerifyOpening(params_, o.commitment, proof));
}

TEST_F(ZkpTest, BitProofVerifiesForZeroAndOne) {
  for (int bit : {0, 1}) {
    auto o = PedersenCommitFresh(params_, BigInt(bit), drbg_);
    auto proof = ProveBit(params_, o.commitment, bit, o.randomness, drbg_);
    ASSERT_TRUE(proof.ok());
    EXPECT_TRUE(VerifyBit(params_, o.commitment, *proof)) << bit;
  }
}

TEST_F(ZkpTest, BitProofRejectsNonBitValue) {
  EXPECT_FALSE(
      ProveBit(params_, PedersenCommitment{BigInt(1)}, 2, BigInt(0), drbg_)
          .ok());
}

TEST_F(ZkpTest, BitProofCannotBeForgedForTwo) {
  // A commitment to 2 with an honest bit proof structure must not verify.
  auto o = PedersenCommitFresh(params_, BigInt(2), drbg_);
  // Try to prove it is a bit by lying (claim bit=0 with the real randomness).
  auto proof = ProveBit(params_, o.commitment, 0, o.randomness, drbg_);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(VerifyBit(params_, o.commitment, *proof));
}

TEST_F(ZkpTest, BitProofRejectsChallengeSplitTampering) {
  auto o = PedersenCommitFresh(params_, BigInt(1), drbg_);
  auto proof = ProveBit(params_, o.commitment, 1, o.randomness, drbg_);
  ASSERT_TRUE(proof.ok());
  proof->e0 = proof->e0.AddMod(BigInt(1), params_.q);
  EXPECT_FALSE(VerifyBit(params_, o.commitment, *proof));
}

TEST_F(ZkpTest, RangeProofVerifies) {
  // 40 fits in 6 bits.
  auto o = PedersenCommitFresh(params_, BigInt(40), drbg_);
  auto proof =
      ProveRange(params_, o.commitment, BigInt(40), o.randomness, 6, drbg_);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(VerifyRange(params_, o.commitment, *proof, 6));
}

TEST_F(ZkpTest, RangeProofBoundaries) {
  for (int64_t m : {int64_t{0}, int64_t{1}, int64_t{63}}) {
    auto o = PedersenCommitFresh(params_, BigInt(m), drbg_);
    auto proof =
        ProveRange(params_, o.commitment, BigInt(m), o.randomness, 6, drbg_);
    ASSERT_TRUE(proof.ok()) << m;
    EXPECT_TRUE(VerifyRange(params_, o.commitment, *proof, 6)) << m;
  }
}

TEST_F(ZkpTest, RangeProofRejectsValueTooLarge) {
  auto o = PedersenCommitFresh(params_, BigInt(64), drbg_);
  EXPECT_FALSE(
      ProveRange(params_, o.commitment, BigInt(64), o.randomness, 6, drbg_)
          .ok());
}

// A zero-width range has no bit to pin the commitment randomness on:
// refused up front, also through the producer-side seal that forwards its
// value width.
TEST_F(ZkpTest, RangeProofRejectsZeroWidth) {
  auto o = PedersenCommitFresh(params_, BigInt(0), drbg_);
  auto proof = ProveRange(params_, o.commitment, BigInt(0), o.randomness,
                          /*num_bits=*/0, drbg_);
  ASSERT_FALSE(proof.ok());
  EXPECT_EQ(proof.status().code(), StatusCode::kInvalidArgument);

  core::DataOwner owner(/*paillier_bits=*/256, params_, /*seed=*/5);
  auto sealed = owner.Seal(0, /*value_bits=*/0, drbg_);
  ASSERT_FALSE(sealed.ok());
  EXPECT_EQ(sealed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ZkpTest, RangeProofRejectsWrongOpening)  {
  auto o = PedersenCommitFresh(params_, BigInt(10), drbg_);
  EXPECT_FALSE(
      ProveRange(params_, o.commitment, BigInt(11), o.randomness, 6, drbg_)
          .ok());
}

TEST_F(ZkpTest, RangeProofRejectsMismatchedCommitment) {
  auto o1 = PedersenCommitFresh(params_, BigInt(10), drbg_);
  auto o2 = PedersenCommitFresh(params_, BigInt(10), drbg_);
  auto proof =
      ProveRange(params_, o1.commitment, BigInt(10), o1.randomness, 6, drbg_);
  ASSERT_TRUE(proof.ok());
  // Same value, different randomness: weighted product check must fail.
  EXPECT_FALSE(VerifyRange(params_, o2.commitment, *proof, 6));
}

TEST_F(ZkpTest, RangeProofRejectsWrongBitWidth) {
  auto o = PedersenCommitFresh(params_, BigInt(40), drbg_);
  auto proof =
      ProveRange(params_, o.commitment, BigInt(40), o.randomness, 6, drbg_);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(VerifyRange(params_, o.commitment, *proof, 7));
}

TEST_F(ZkpTest, RangeProofRejectsSwappedBitCommitments) {
  auto o = PedersenCommitFresh(params_, BigInt(5), drbg_);  // 101b.
  auto proof =
      ProveRange(params_, o.commitment, BigInt(5), o.randomness, 3, drbg_);
  ASSERT_TRUE(proof.ok());
  std::swap(proof->bit_commitments[0], proof->bit_commitments[1]);
  std::swap(proof->bit_proofs[0], proof->bit_proofs[1]);
  EXPECT_FALSE(VerifyRange(params_, o.commitment, *proof, 3));
}

// The canonical PReVer regulation: committed weekly hours <= 40.
TEST_F(ZkpTest, UpperBoundProofAcceptsCompliantValue) {
  const BigInt kBound(40);
  auto o = PedersenCommitFresh(params_, BigInt(38), drbg_);
  auto proof = ProveUpperBound(params_, o.commitment, BigInt(38),
                               o.randomness, kBound, 8, drbg_);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(VerifyUpperBound(params_, o.commitment, *proof, kBound, 8));
}

TEST_F(ZkpTest, UpperBoundProofExactlyAtBound) {
  const BigInt kBound(40);
  auto o = PedersenCommitFresh(params_, BigInt(40), drbg_);
  auto proof = ProveUpperBound(params_, o.commitment, BigInt(40),
                               o.randomness, kBound, 8, drbg_);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(VerifyUpperBound(params_, o.commitment, *proof, kBound, 8));
}

TEST_F(ZkpTest, UpperBoundProofCannotBeProducedWhenViolating) {
  const BigInt kBound(40);
  auto o = PedersenCommitFresh(params_, BigInt(41), drbg_);
  EXPECT_FALSE(ProveUpperBound(params_, o.commitment, BigInt(41),
                               o.randomness, kBound, 8, drbg_)
                   .ok());
}

TEST_F(ZkpTest, UpperBoundProofDoesNotTransferToOtherCommitment) {
  const BigInt kBound(40);
  auto o1 = PedersenCommitFresh(params_, BigInt(10), drbg_);
  auto o2 = PedersenCommitFresh(params_, BigInt(50), drbg_);
  auto proof = ProveUpperBound(params_, o1.commitment, BigInt(10),
                               o1.randomness, kBound, 8, drbg_);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(VerifyUpperBound(params_, o2.commitment, *proof, kBound, 8));
}

// Property sweep over random values and widths.

// ------------------------------------------------- negative-path transcripts

// Walks EVERY scalar of an honest range-proof transcript and perturbs one
// field at a time: any single-field tamper must be rejected. This is the
// adversarial complement of the round-trip property above — a verifier
// that ignores one equation passes round-trips but fails here.
TEST_F(ZkpTest, RangeProofRejectsEveryScalarTamper) {
  constexpr size_t kBits = 4;
  auto o = PedersenCommitFresh(params_, BigInt(9), drbg_);
  auto honest =
      ProveRange(params_, o.commitment, BigInt(9), o.randomness, kBits, drbg_);
  ASSERT_TRUE(honest.ok());
  ASSERT_TRUE(VerifyRange(params_, o.commitment, *honest, kBits));

  for (size_t i = 0; i < honest->bit_proofs.size(); ++i) {
    using FieldRef = BigInt BitProof::*;
    struct Field {
      const char* name;
      FieldRef ref;
      bool mod_p;  // Nonce commitments live mod p, responses mod q.
    };
    const Field kFields[] = {
        {"t0", &BitProof::t0, true},  {"t1", &BitProof::t1, true},
        {"e0", &BitProof::e0, false}, {"e1", &BitProof::e1, false},
        {"z0", &BitProof::z0, false}, {"z1", &BitProof::z1, false},
    };
    for (const Field& f : kFields) {
      RangeProof tampered = *honest;
      BigInt& v = tampered.bit_proofs[i].*f.ref;
      v = f.mod_p ? v.MulMod(params_.g, params_.p)
                  : v.AddMod(BigInt(1), params_.q);
      EXPECT_FALSE(VerifyRange(params_, o.commitment, tampered, kBits))
          << "bit " << i << " field " << f.name;
    }
    RangeProof tampered = *honest;
    tampered.bit_commitments[i].c =
        tampered.bit_commitments[i].c.MulMod(params_.g, params_.p);
    EXPECT_FALSE(VerifyRange(params_, o.commitment, tampered, kBits))
        << "bit commitment " << i;
  }
}

// A token whose FDH-RSA signature (or serial) was perturbed after issuance
// must be refused by the manager-side verifier with IntegrityViolation —
// the spent-serial set must stay untouched so the honest original still
// spends afterwards.
TEST_F(ZkpTest, TamperedRsaTokenIsRejected) {
  token::TokenAuthority authority(512, 4, 1000, 555);
  token::TokenWallet wallet(authority.public_key(), 556);
  auto got = wallet.Withdraw(authority, "alice", 1, 10);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(wallet.NumTokens(), 1u);
  auto tok = wallet.Take();
  ASSERT_TRUE(tok.ok());

  token::TokenVerifier verifier(authority.public_key());
  ledger::LedgerDb ledger;
  token::Token bad_sig = *tok;
  bad_sig.signature.front() ^= 0x01;
  EXPECT_EQ(verifier.Spend(bad_sig, ledger, 10).code(),
            StatusCode::kIntegrityViolation);
  token::Token bad_serial = *tok;
  bad_serial.serial.push_back(0x00);
  EXPECT_EQ(verifier.Spend(bad_serial, ledger, 10).code(),
            StatusCode::kIntegrityViolation);
  EXPECT_EQ(verifier.num_spent(), 0u);
  EXPECT_EQ(ledger.size(), 0u);
  EXPECT_TRUE(verifier.Spend(*tok, ledger, 10).ok());
}

class RangeProofProperty : public ::testing::TestWithParam<int> {};

TEST_P(RangeProofProperty, RandomValuesRoundTrip) {
  const auto& params = PedersenParams::Test256();
  Drbg drbg(static_cast<uint64_t>(GetParam()) * 1000 + 7);
  prever::Rng rng(static_cast<uint64_t>(GetParam()));
  size_t bits = 4 + rng.NextBelow(6);  // 4..9 bits.
  int64_t m = static_cast<int64_t>(rng.NextBelow(1ULL << bits));
  auto o = PedersenCommitFresh(params, BigInt(m), drbg);
  auto proof = ProveRange(params, o.commitment, BigInt(m), o.randomness, bits,
                          drbg);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(VerifyRange(params, o.commitment, *proof, bits));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeProofProperty,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace prever::crypto
