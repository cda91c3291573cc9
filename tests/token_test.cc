#include "token/token.h"

#include <gtest/gtest.h>

namespace prever::token {
namespace {

class TokenTest : public ::testing::Test {
 protected:
  // 40 tokens per week: the FLSA encoding — one token per work hour.
  TokenTest() : authority_(512, 40, kWeek, 42) {}

  TokenAuthority authority_;
  ledger::LedgerDb spent_ledger_;
};

TEST_F(TokenTest, WithdrawAndSpend) {
  TokenWallet wallet(authority_.public_key(), 1);
  auto got = wallet.Withdraw(authority_, "worker-1", 3, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 3u);
  EXPECT_EQ(wallet.NumTokens(), 3u);
  EXPECT_EQ(authority_.RemainingBudget("worker-1", 0), 37u);

  TokenVerifier verifier(authority_.public_key());
  auto token = wallet.Take();
  ASSERT_TRUE(token.ok());
  EXPECT_TRUE(verifier.Spend(*token, spent_ledger_, 100).ok());
  EXPECT_EQ(verifier.num_spent(), 1u);
  EXPECT_EQ(spent_ledger_.size(), 1u);
}

TEST_F(TokenTest, DoubleSpendDetected) {
  TokenWallet wallet(authority_.public_key(), 2);
  ASSERT_TRUE(wallet.Withdraw(authority_, "worker-1", 1, 0).ok());
  TokenVerifier verifier(authority_.public_key());
  auto token = wallet.Take();
  ASSERT_TRUE(token.ok());
  ASSERT_TRUE(verifier.Spend(*token, spent_ledger_, 100).ok());
  Status again = verifier.Spend(*token, spent_ledger_, 200);
  EXPECT_EQ(again.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(spent_ledger_.size(), 1u);
}

TEST_F(TokenTest, CheckRejectsRepeatedSerialWithinOneSpend) {
  TokenWallet wallet(authority_.public_key(), 11);
  ASSERT_TRUE(wallet.Withdraw(authority_, "worker-1", 2, 0).ok());
  auto t1 = wallet.Take();
  auto t2 = wallet.Take();
  ASSERT_TRUE(t1.ok() && t2.ok());
  TokenVerifier verifier(authority_.public_key());
  std::vector<char> rejected;
  EXPECT_EQ(verifier.Check({*t1, *t2, *t1}, nullptr, &rejected).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(rejected, (std::vector<char>{0, 0, 1}));  // Only the repeat.
  // A check records nothing: both serials are still unspent.
  EXPECT_EQ(verifier.num_spent(), 0u);
  EXPECT_TRUE(verifier.Check({*t1, *t2}).ok());
  verifier.MarkSpent(t1->serial);
  EXPECT_EQ(verifier.Check({*t2, *t1}, nullptr, &rejected).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(rejected, (std::vector<char>{0, 1}));
}

TEST_F(TokenTest, ForgedTokenRejected) {
  TokenVerifier verifier(authority_.public_key());
  crypto::Drbg drbg(uint64_t{3});
  Token forged;
  forged.serial = drbg.Generate(32);
  forged.signature = drbg.Generate(64);
  EXPECT_EQ(verifier.Spend(forged, spent_ledger_, 0).code(),
            StatusCode::kIntegrityViolation);
  EXPECT_EQ(spent_ledger_.size(), 0u);
}

TEST_F(TokenTest, BudgetExhaustionStopsIssuance) {
  TokenWallet wallet(authority_.public_key(), 4);
  auto got = wallet.Withdraw(authority_, "worker-1", 50, 0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, 40u);  // Capped at the weekly budget.
  EXPECT_EQ(authority_.RemainingBudget("worker-1", 0), 0u);
}

TEST_F(TokenTest, BudgetResetsNextPeriod) {
  TokenWallet wallet(authority_.public_key(), 5);
  ASSERT_EQ(*wallet.Withdraw(authority_, "worker-1", 40, 0), 40u);
  EXPECT_EQ(authority_.RemainingBudget("worker-1", 0), 0u);
  // Next week, budget is fresh.
  SimTime next_week = kWeek + kHour;
  EXPECT_EQ(authority_.RemainingBudget("worker-1", next_week), 40u);
  EXPECT_EQ(*wallet.Withdraw(authority_, "worker-1", 10, next_week), 10u);
}

TEST_F(TokenTest, BudgetsArePerParticipant) {
  TokenWallet w1(authority_.public_key(), 6);
  TokenWallet w2(authority_.public_key(), 7);
  ASSERT_EQ(*w1.Withdraw(authority_, "worker-1", 40, 0), 40u);
  EXPECT_EQ(*w2.Withdraw(authority_, "worker-2", 40, 0), 40u);
}

TEST(TokenAuthorityTest, FailedSignatureDebitsNoBudget) {
  // An authority whose CRT exponent dp is corrupted: every signature fails
  // RSA-CRT's s^e == m check. The error must reach the wallet, and the
  // budget of a signature that was never released must stay unspent.
  crypto::Drbg drbg(uint64_t{42});
  crypto::RsaKeyPair key = crypto::RsaGenerateKey(512, drbg).value();
  key.dp = key.dp + crypto::BigInt(1);
  TokenAuthority authority(key, 40, kWeek);
  TokenWallet wallet(authority.public_key(), 1);
  auto got = wallet.Withdraw(authority, "worker-1", 3, 0);
  EXPECT_EQ(got.status().code(), StatusCode::kInternal);
  EXPECT_EQ(wallet.NumTokens(), 0u);
  EXPECT_EQ(authority.RemainingBudget("worker-1", 0), 40u);

  // The same key with the CRT values intact issues and debits as usual.
  key.dp = key.d.Mod(key.p - crypto::BigInt(1));
  TokenAuthority repaired(key, 40, kWeek);
  TokenWallet wallet2(repaired.public_key(), 2);
  EXPECT_EQ(*wallet2.Withdraw(repaired, "worker-1", 3, 0), 3u);
  EXPECT_EQ(repaired.RemainingBudget("worker-1", 0), 37u);
}

TEST_F(TokenTest, CrossPlatformDoubleSpendCaughtViaSharedLedger) {
  // Two mutually distrustful platforms share a spent-token ledger — the
  // Separ architecture. A worker tries to spend one token on both.
  TokenWallet wallet(authority_.public_key(), 8);
  ASSERT_TRUE(wallet.Withdraw(authority_, "worker-1", 1, 0).ok());
  auto token = wallet.Take();
  ASSERT_TRUE(token.ok());

  TokenVerifier platform_a(authority_.public_key());
  TokenVerifier platform_b(authority_.public_key());
  ASSERT_TRUE(platform_a.Spend(*token, spent_ledger_, 100).ok());
  // Platform B syncs from the shared ledger before accepting.
  ASSERT_TRUE(platform_b.SyncFromLedger(spent_ledger_).ok());
  EXPECT_EQ(platform_b.Spend(*token, spent_ledger_, 200).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(TokenTest, SyncFromLedgerDetectsTampering) {
  TokenWallet wallet(authority_.public_key(), 9);
  ASSERT_TRUE(wallet.Withdraw(authority_, "worker-1", 2, 0).ok());
  TokenVerifier verifier(authority_.public_key());
  auto t1 = wallet.Take();
  ASSERT_TRUE(verifier.Spend(*t1, spent_ledger_, 0).ok());
  ASSERT_TRUE(spent_ledger_.TamperWithEntryForTest(0, ToBytes("evil")).ok());
  TokenVerifier late_joiner(authority_.public_key());
  EXPECT_EQ(late_joiner.SyncFromLedger(spent_ledger_).code(),
            StatusCode::kIntegrityViolation);
}

TEST_F(TokenTest, UnlinkabilityMechanics) {
  // The authority sees only blinded serials at issuance. Two withdrawals of
  // the same wallet produce tokens whose serials the authority never saw.
  TokenWallet wallet(authority_.public_key(), 10);
  ASSERT_TRUE(wallet.Withdraw(authority_, "worker-1", 2, 0).ok());
  auto t1 = wallet.Take();
  auto t2 = wallet.Take();
  ASSERT_TRUE(t1.ok() && t2.ok());
  EXPECT_NE(t1->serial, t2->serial);
  // Both verify under the authority key even though it signed only blinded
  // values.
  TokenVerifier verifier(authority_.public_key());
  EXPECT_TRUE(verifier.Spend(*t1, spent_ledger_, 0).ok());
  EXPECT_TRUE(verifier.Spend(*t2, spent_ledger_, 0).ok());
}

}  // namespace
}  // namespace prever::token
