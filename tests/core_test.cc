#include <gtest/gtest.h>

#include <set>

#include "core/prever.h"
#include "test_util.h"

namespace prever::core {
namespace {

using storage::Mutation;
using storage::Schema;
using storage::Value;
using storage::ValueType;

// ------------------------------------------------------------ Participants

TEST(ParticipantTest, RegistryBasics) {
  ParticipantRegistry registry;
  ASSERT_TRUE(registry
                  .Add(Participant{"uber",
                                   {Role::kDataManager, Role::kDataOwner},
                                   TrustLevel::kCovert})
                  .ok());
  ASSERT_TRUE(registry
                  .Add(Participant{"dol", {Role::kAuthority},
                                   TrustLevel::kHonest})
                  .ok());
  EXPECT_FALSE(registry.Add(Participant{"uber", {}, {}}).ok());
  EXPECT_FALSE(registry.Add(Participant{"", {}, {}}).ok());
  EXPECT_TRUE(registry.HasRole("uber", Role::kDataManager));
  EXPECT_FALSE(registry.HasRole("uber", Role::kAuthority));
  EXPECT_FALSE(registry.HasRole("nobody", Role::kAuthority));
  EXPECT_EQ((*registry.Find("dol"))->trust, TrustLevel::kHonest);
}

TEST(ParticipantTest, Names) {
  EXPECT_STREQ(RoleName(Role::kDataProducer), "data-producer");
  EXPECT_STREQ(TrustLevelName(TrustLevel::kCovert), "covert");
}

// ----------------------------------------------------------------- Update

TEST(UpdateTest, EncodeDecodeRoundTrip) {
  Update u = MakeWorklogUpdate("t1", "w1", 8, 500);
  auto decoded = Update::Decode(u.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, "t1");
  EXPECT_EQ(decoded->producer, "w1");
  EXPECT_EQ(decoded->timestamp, 500u);
  EXPECT_EQ(decoded->fields.at("hours"), Value::Int64(8));
  EXPECT_EQ(decoded->mutation.table, "worklog");
}

TEST(UpdateTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(Update::Decode(ToBytes("nonsense")).ok());
}

// --------------------------------------------------------------- Ordering

TEST(OrderingTest, CentralizedAppends) {
  CentralizedOrdering ordering;
  ASSERT_TRUE(ordering.Append(ToBytes("a"), 1).ok());
  ASSERT_TRUE(ordering.Append(ToBytes("b"), 2).ok());
  EXPECT_EQ(ordering.CommittedCount(), 2u);
  EXPECT_TRUE(IntegrityAuditor::AuditLedger(ordering.Ledger()).ok());
}

TEST(OrderingTest, PbftReplicatesToAllReplicaLedgers) {
  PbftOrdering ordering(4, net::SimNetConfig{});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ordering.Append(ToBytes("u" + std::to_string(i)), i).ok());
  }
  EXPECT_EQ(ordering.CommittedCount(), 5u);
  // Drain in-flight commits on the remaining replicas.
  ordering.network().RunUntilIdle();
  std::vector<const ledger::LedgerDb*> replicas;
  for (size_t i = 0; i < ordering.num_replicas(); ++i) {
    replicas.push_back(&ordering.ReplicaLedger(i));
  }
  EXPECT_TRUE(IntegrityAuditor::CheckReplicaAgreement(replicas).ok());
  EXPECT_EQ(ordering.ReplicaLedger(3).size(), 5u);
}

TEST(OrderingTest, RaftCommits) {
  RaftOrdering ordering(3, net::SimNetConfig{});
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ordering.Append(ToBytes("u" + std::to_string(i)), i).ok());
  }
  EXPECT_EQ(ordering.CommittedCount(), 5u);
}

// ------------------------------------------------- Plaintext engine (base)

class PlaintextEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema worklog({{"id", ValueType::kString},
                    {"worker", ValueType::kString},
                    {"hours", ValueType::kInt64},
                    {"at", ValueType::kTimestamp}});
    ASSERT_TRUE(db_.CreateTable("worklog", worklog).ok());
    ASSERT_TRUE(catalog_
                    .Add("flsa", constraint::ConstraintScope::kRegulation,
                         constraint::ConstraintVisibility::kPublic,
                         "SUM(worklog.hours WHERE worker = update.worker "
                         "WINDOW 7d) + update.hours <= 40")
                    .ok());
    engine_ = std::make_unique<PlaintextEngine>(&db_, &catalog_, &ordering_);
  }

  storage::Database db_;
  constraint::ConstraintCatalog catalog_;
  CentralizedOrdering ordering_;
  std::unique_ptr<PlaintextEngine> engine_;
};

TEST_F(PlaintextEngineTest, AcceptsCompliantUpdates) {
  ASSERT_TRUE(engine_->SubmitUpdate(MakeWorklogUpdate("t1", "w1", 30, kDay)).ok());
  ASSERT_TRUE(
      engine_->SubmitUpdate(MakeWorklogUpdate("t2", "w1", 10, 2 * kDay)).ok());
  EXPECT_EQ(engine_->stats().accepted, 2u);
  EXPECT_EQ((*db_.GetTable("worklog"))->size(), 2u);
  EXPECT_EQ(ordering_.CommittedCount(), 2u);
}

TEST_F(PlaintextEngineTest, RejectsRegulationViolation) {
  ASSERT_TRUE(engine_->SubmitUpdate(MakeWorklogUpdate("t1", "w1", 38, kDay)).ok());
  Status s = engine_->SubmitUpdate(MakeWorklogUpdate("t2", "w1", 5, 2 * kDay));
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(engine_->stats().rejected_constraint, 1u);
  // The rejected update touched neither the database nor the ledger.
  EXPECT_EQ((*db_.GetTable("worklog"))->size(), 1u);
  EXPECT_EQ(ordering_.CommittedCount(), 1u);
}

TEST_F(PlaintextEngineTest, WindowExpiryReadmitsWorker) {
  ASSERT_TRUE(engine_->SubmitUpdate(MakeWorklogUpdate("t1", "w1", 40, kDay)).ok());
  EXPECT_FALSE(
      engine_->SubmitUpdate(MakeWorklogUpdate("t2", "w1", 1, 2 * kDay)).ok());
  // Nine days later the first entry left the 7d window.
  EXPECT_TRUE(
      engine_->SubmitUpdate(MakeWorklogUpdate("t3", "w1", 40, 10 * kDay)).ok());
}

TEST_F(PlaintextEngineTest, PerWorkerIsolation) {
  ASSERT_TRUE(engine_->SubmitUpdate(MakeWorklogUpdate("t1", "w1", 40, kDay)).ok());
  // A different worker is unaffected by w1's total.
  EXPECT_TRUE(engine_->SubmitUpdate(MakeWorklogUpdate("t2", "w2", 40, kDay)).ok());
}

TEST_F(PlaintextEngineTest, ApplyFailureReported) {
  ASSERT_TRUE(engine_->SubmitUpdate(MakeWorklogUpdate("t1", "w1", 1, kDay)).ok());
  // Duplicate primary key: verification passes, apply fails.
  Status s = engine_->SubmitUpdate(MakeWorklogUpdate("t1", "w1", 1, 2 * kDay));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(engine_->stats().rejected_error, 1u);
}

// ----------------------------------------------------- RC1 encrypted engine

class EncryptedEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    owner_ = new DataOwner(256, crypto::PedersenParams::Test256(), 77);
  }
  void SetUp() override {
    std::vector<RegulatedBound> bounds = {
        {constraint::BoundDirection::kUpper, 40, kWeek, 8}};
    engine_ = std::make_unique<EncryptedEngine>(
        owner_, &ordering_, "worker", "hours", bounds, /*value_bits=*/8,
        /*seed=*/5);
  }

  static DataOwner* owner_;
  CentralizedOrdering ordering_;
  std::unique_ptr<EncryptedEngine> engine_;
};
DataOwner* EncryptedEngineTest::owner_ = nullptr;

TEST_F(EncryptedEngineTest, AcceptsCompliantSealedUpdates) {
  ASSERT_TRUE(engine_->SubmitUpdate(MakeWorklogUpdate("t1", "w1", 20, kDay)).ok());
  ASSERT_TRUE(
      engine_->SubmitUpdate(MakeWorklogUpdate("t2", "w1", 20, 2 * kDay)).ok());
  EXPECT_EQ(engine_->stats().accepted, 2u);
  EXPECT_EQ(engine_->NumRows("w1"), 2u);
  EXPECT_EQ(ordering_.CommittedCount(), 2u);
}

TEST_F(EncryptedEngineTest, RejectsBoundViolationWithoutSeeingValues) {
  ASSERT_TRUE(engine_->SubmitUpdate(MakeWorklogUpdate("t1", "w1", 38, kDay)).ok());
  Status s = engine_->SubmitUpdate(MakeWorklogUpdate("t2", "w1", 5, 2 * kDay));
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(engine_->NumRows("w1"), 1u);
}

TEST_F(EncryptedEngineTest, WindowExpiryWorks) {
  ASSERT_TRUE(engine_->SubmitUpdate(MakeWorklogUpdate("t1", "w1", 40, kDay)).ok());
  EXPECT_FALSE(
      engine_->SubmitUpdate(MakeWorklogUpdate("t2", "w1", 1, 2 * kDay)).ok());
  EXPECT_TRUE(
      engine_->SubmitUpdate(MakeWorklogUpdate("t3", "w1", 40, 10 * kDay)).ok());
}

TEST_F(EncryptedEngineTest, GroupsAreIndependent) {
  ASSERT_TRUE(engine_->SubmitUpdate(MakeWorklogUpdate("t1", "w1", 40, kDay)).ok());
  EXPECT_TRUE(engine_->SubmitUpdate(MakeWorklogUpdate("t2", "w2", 40, kDay)).ok());
}

TEST_F(EncryptedEngineTest, RejectsValueOutsideProducerRange) {
  // value_bits = 8: 300 does not fit, sealing refuses.
  Status s = engine_->SubmitUpdate(MakeWorklogUpdate("t1", "w1", 300, kDay));
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(engine_->stats().rejected_error, 1u);
}

TEST_F(EncryptedEngineTest, RejectsNegativeValues) {
  EXPECT_FALSE(
      engine_->SubmitUpdate(MakeWorklogUpdate("t1", "w1", -3, kDay)).ok());
}

TEST_F(EncryptedEngineTest, ManagerDetectsTamperedSeal) {
  Update u = MakeWorklogUpdate("t1", "w1", 10, kDay);
  auto sealed = engine_->Seal(u);
  ASSERT_TRUE(sealed.ok());
  // A malicious producer swaps in a ciphertext of a different value while
  // keeping the old commitment: the owner's binding check must catch it.
  crypto::Drbg drbg(uint64_t{123});
  auto other =
      crypto::PaillierEncrypt(owner_->paillier_pub(), crypto::BigInt(1), drbg);
  ASSERT_TRUE(other.ok());
  sealed->sealed.value_ct = *other;
  Status s = engine_->SubmitSealed(*sealed);
  EXPECT_EQ(s.code(), StatusCode::kIntegrityViolation);
}

TEST_F(EncryptedEngineTest, MissingFieldsRejected) {
  Update u;
  u.id = "t1";
  u.timestamp = kDay;
  EXPECT_FALSE(engine_->SubmitUpdate(u).ok());
}

// --------------------------------------------------- RC2 federated engines

class FederatedMpcEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) {
      auto platform = std::make_unique<FederatedPlatform>();
      platform->id = "platform-" + std::to_string(i);
      ASSERT_TRUE(platform->db.CreateTable("worklog", WorklogSchema()).ok());
      platforms_.push_back(std::move(platform));
    }
    ASSERT_TRUE(regulations_
                    .Add("flsa", constraint::ConstraintScope::kRegulation,
                         constraint::ConstraintVisibility::kPublic,
                         "SUM(worklog.hours WHERE worker = update.worker "
                         "WINDOW 7d) + update.hours <= 40")
                    .ok());
    std::vector<FederatedPlatform*> raw;
    for (auto& p : platforms_) raw.push_back(p.get());
    engine_ = std::make_unique<FederatedMpcEngine>(raw, &regulations_,
                                                   &ordering_, 99);
  }

  std::vector<std::unique_ptr<FederatedPlatform>> platforms_;
  constraint::ConstraintCatalog regulations_;
  CentralizedOrdering ordering_;
  std::unique_ptr<FederatedMpcEngine> engine_;
};

TEST_F(FederatedMpcEngineTest, ValidatesLinearRegulations) {
  EXPECT_TRUE(engine_->ValidateRegulations().ok());
  constraint::ConstraintCatalog bad;
  ASSERT_TRUE(bad.Add("weird", constraint::ConstraintScope::kRegulation,
                      constraint::ConstraintVisibility::kPublic,
                      "MIN(worklog.hours) <= 2")
                  .ok());
  std::vector<FederatedPlatform*> raw = {platforms_[0].get()};
  FederatedMpcEngine unsupported(raw, &bad, &ordering_, 1);
  EXPECT_EQ(unsupported.ValidateRegulations().code(),
            StatusCode::kNotSupported);
}

TEST_F(FederatedMpcEngineTest, EnforcesCrossPlatformCap) {
  // Worker w1 logs 18h on platform 0 and 15h on platform 1.
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 18, kDay)).ok());
  ASSERT_TRUE(engine_->SubmitVia(1, MakeWorklogUpdate("t2", "w1", 15, 2 * kDay)).ok());
  // 6 more hours on platform 2 → 39 total: fine.
  ASSERT_TRUE(engine_->SubmitVia(2, MakeWorklogUpdate("t3", "w1", 6, 3 * kDay)).ok());
  // 2 more anywhere → 41 > 40: rejected even though each platform's local
  // view (18, 15, 6+2) is far below the cap.
  Status s = engine_->SubmitVia(1, MakeWorklogUpdate("t4", "w1", 2, 3 * kDay));
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  // Local databases only hold their own accepted tasks.
  EXPECT_EQ((*platforms_[0]->db.GetTable("worklog"))->size(), 1u);
  EXPECT_EQ((*platforms_[1]->db.GetTable("worklog"))->size(), 1u);
  EXPECT_EQ((*platforms_[2]->db.GetTable("worklog"))->size(), 1u);
  EXPECT_EQ(ordering_.CommittedCount(), 3u);
}

TEST_F(FederatedMpcEngineTest, WindowExpiryAcrossPlatforms) {
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 40, kDay)).ok());
  EXPECT_FALSE(engine_->SubmitVia(1, MakeWorklogUpdate("t2", "w1", 1, 2 * kDay)).ok());
  EXPECT_TRUE(
      engine_->SubmitVia(1, MakeWorklogUpdate("t3", "w1", 40, 10 * kDay)).ok());
}

TEST_F(FederatedMpcEngineTest, InternalConstraintsCheckedFirst) {
  ASSERT_TRUE(platforms_[0]
                  ->internal_constraints
                  .Add("max-shift", constraint::ConstraintScope::kInternal,
                       constraint::ConstraintVisibility::kPrivate,
                       "update.hours <= 12")
                  .ok());
  Status s = engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 14, kDay));
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  // The same update via platform 1 (no such internal constraint) passes.
  EXPECT_TRUE(engine_->SubmitVia(1, MakeWorklogUpdate("t2", "w1", 14, kDay)).ok());
}

TEST_F(FederatedMpcEngineTest, ReplacedRegulationIsNotServedStale) {
  ASSERT_TRUE(
      engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 18, kDay)).ok());
  // Re-extraction frees flsa's SUM aggregate; the COUNT that replaces it
  // may land at the same address and must not be served the SUM (18 > 5).
  ASSERT_TRUE(regulations_.Remove("flsa").ok());
  ASSERT_TRUE(regulations_
                  .Add("few", constraint::ConstraintScope::kRegulation,
                       constraint::ConstraintVisibility::kPublic,
                       "COUNT(worklog WHERE worker = update.worker) <= 5")
                  .ok());
  EXPECT_TRUE(
      engine_->SubmitVia(1, MakeWorklogUpdate("t2", "w1", 1, 2 * kDay)).ok());
}

TEST_F(FederatedMpcEngineTest, TranscriptAccumulates) {
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 5, kDay)).ok());
  EXPECT_GT(engine_->transcript().rounds, 0u);
  EXPECT_GT(engine_->transcript().messages, 0u);
}

class FederatedTokenEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    authority_ = new token::TokenAuthority(512, 40, kWeek, 7);
  }
  void SetUp() override {
    for (int i = 0; i < 2; ++i) {
      auto platform = std::make_unique<FederatedPlatform>();
      platform->id = "platform-" + std::to_string(i);
      ASSERT_TRUE(platform->db.CreateTable("worklog", WorklogSchema()).ok());
      platforms_.push_back(std::move(platform));
    }
    std::vector<FederatedPlatform*> raw;
    for (auto& p : platforms_) raw.push_back(p.get());
    engine_ = std::make_unique<FederatedTokenEngine>(raw, authority_,
                                                     &ordering_, "hours");
  }

  static token::TokenAuthority* authority_;
  std::vector<std::unique_ptr<FederatedPlatform>> platforms_;
  CentralizedOrdering ordering_;
  std::unique_ptr<FederatedTokenEngine> engine_;
};
token::TokenAuthority* FederatedTokenEngineTest::authority_ = nullptr;

TEST_F(FederatedTokenEngineTest, EnforcesBudgetAcrossPlatforms) {
  // Unique worker per test (the authority is shared across tests).
  ASSERT_TRUE(
      engine_->SubmitVia(0, MakeWorklogUpdate("a1", "alice", 25, kDay)).ok());
  ASSERT_TRUE(
      engine_->SubmitVia(1, MakeWorklogUpdate("a2", "alice", 15, 2 * kDay)).ok());
  // Budget (40) exhausted: next task rejected regardless of platform.
  Status s = engine_->SubmitVia(0, MakeWorklogUpdate("a3", "alice", 1, 3 * kDay));
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(engine_->tokens_spent(), 40u);
  EXPECT_EQ(ordering_.CommittedCount(), 40u);  // One entry per burned token.
}

TEST_F(FederatedTokenEngineTest, BudgetRenewsNextPeriod) {
  ASSERT_TRUE(
      engine_->SubmitVia(0, MakeWorklogUpdate("b1", "bob", 40, kDay)).ok());
  EXPECT_FALSE(
      engine_->SubmitVia(0, MakeWorklogUpdate("b2", "bob", 1, 2 * kDay)).ok());
  EXPECT_TRUE(
      engine_->SubmitVia(0, MakeWorklogUpdate("b3", "bob", 40, kWeek + kDay))
          .ok());
}

TEST_F(FederatedTokenEngineTest, RejectsMalformedCost) {
  Update u = MakeWorklogUpdate("c1", "carol", 5, kDay);
  u.fields.erase("hours");
  EXPECT_FALSE(engine_->SubmitVia(0, u).ok());
  Update neg = MakeWorklogUpdate("c2", "carol", -2, kDay);
  EXPECT_FALSE(engine_->SubmitVia(0, neg).ok());
}

TEST_F(FederatedTokenEngineTest, RejectedSpendReturnsHonestTokensToWallet) {
  auto& wallet = engine_->WalletOf("erin");
  ASSERT_EQ(wallet.Withdraw(*authority_, "erin", 3, kDay).value(), 3u);
  token::Token forged;
  forged.serial = ToBytes("forged-erin");
  forged.signature = Bytes(authority_->public_key().ModulusBytes(), 0x5a);
  wallet.PutForTest(forged);  // On top: the first token a spend draws.

  Status s = engine_->SubmitVia(0, MakeWorklogUpdate("e1", "erin", 4, kDay));
  EXPECT_EQ(s.code(), StatusCode::kIntegrityViolation);
  EXPECT_EQ(wallet.NumTokens(), 3u);  // Only the forged token is dropped.
  EXPECT_EQ(ordering_.CommittedCount(), 0u);

  // The three honest tokens pay for a cost-3 update without a withdrawal.
  const uint64_t budget = authority_->RemainingBudget("erin", kDay);
  ASSERT_TRUE(
      engine_->SubmitVia(0, MakeWorklogUpdate("e2", "erin", 3, kDay)).ok());
  EXPECT_EQ(authority_->RemainingBudget("erin", kDay), budget);
  EXPECT_EQ(wallet.NumTokens(), 0u);
  EXPECT_EQ(ordering_.CommittedCount(), 3u);
}

TEST_F(FederatedTokenEngineTest, SpentSerialIndexRebuiltFromLedgerAfterRestart) {
  // Spend tokens through the first engine instance, then simulate a platform
  // restart: a fresh engine over the SAME ordering ledger rebuilds its
  // spent-serial index through SyncSpentFromLedger, and a replayed token —
  // spent before the restart, presented again after it — is still caught.
  auto& wallet = engine_->WalletOf("dave");
  ASSERT_TRUE(wallet.Withdraw(*authority_, "dave", 1, kDay).ok());
  auto replayed = wallet.Take();
  ASSERT_TRUE(replayed.ok());
  // Put it back: the 1-hour task below draws exactly this token.
  wallet.PutForTest(*replayed);
  ASSERT_TRUE(
      engine_->SubmitVia(0, MakeWorklogUpdate("d1", "dave", 1, kDay)).ok());
  ASSERT_TRUE(
      engine_->SubmitVia(1, MakeWorklogUpdate("d2", "dave", 4, 2 * kDay)).ok());
  uint64_t committed = ordering_.CommittedCount();
  ASSERT_EQ(committed, 5u);  // One ledger entry per burned token.

  // "Restart": a new engine instance over the same platforms and ledger,
  // with an empty in-memory spent-serial set until it syncs.
  std::vector<FederatedPlatform*> raw;
  for (auto& p : platforms_) raw.push_back(p.get());
  FederatedTokenEngine restarted(raw, authority_, &ordering_, "hours");
  ASSERT_TRUE(restarted.SyncSpentFromLedger().ok());

  // The double-spend attempt straddles the restart: the token was burned by
  // the old instance, the replay hits the new one.
  restarted.WalletOf("dave").PutForTest(*replayed);
  Status s =
      restarted.SubmitVia(1, MakeWorklogUpdate("d3", "dave", 1, 3 * kDay));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(ordering_.CommittedCount(), committed);  // Nothing burned.

  // Fresh tokens still spend through the restarted engine.
  EXPECT_TRUE(
      restarted.SubmitVia(0, MakeWorklogUpdate("d4", "dave", 2, 4 * kDay))
          .ok());
  EXPECT_EQ(ordering_.CommittedCount(), committed + 2);
}

TEST_F(FederatedTokenEngineTest, TokenPresentedTwiceInOneUpdateIsRejected) {
  auto& wallet = engine_->WalletOf("frank");
  ASSERT_TRUE(wallet.Withdraw(*authority_, "frank", 1, kDay).ok());
  auto token = wallet.Take();
  ASSERT_TRUE(token.ok());
  wallet.PutForTest(*token);  // The same serial, twice, pays a cost of 2.
  wallet.PutForTest(*token);

  Status s = engine_->SubmitVia(0, MakeWorklogUpdate("f1", "frank", 2, kDay));
  EXPECT_EQ(s.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(ordering_.CommittedCount(), 0u);
  EXPECT_EQ(engine_->tokens_spent(), 0u);
  EXPECT_EQ(wallet.NumTokens(), 1u);  // One honest copy goes back.
}

TEST_F(FederatedTokenEngineTest, SerialIsSpentOnlyOnceItsAppendReturnedOk) {
  FailingAppendOrdering ordering(/*fail_at=*/1);
  std::vector<FederatedPlatform*> raw;
  for (auto& p : platforms_) raw.push_back(p.get());
  FederatedTokenEngine engine(raw, authority_, &ordering, "hours");
  auto& wallet = engine.WalletOf("gina");
  ASSERT_EQ(wallet.Withdraw(*authority_, "gina", 2, kDay).value(), 2u);
  auto first = wallet.Take();
  auto second = wallet.Take();
  ASSERT_TRUE(first.ok() && second.ok());
  wallet.PutForTest(*second);  // The spend draws `first`, then `second`.
  wallet.PutForTest(*first);

  Status s = engine.SubmitVia(0, MakeWorklogUpdate("g1", "gina", 2, kDay));
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  ASSERT_EQ(ordering.CommittedCount(), 1u);
  EXPECT_EQ(ordering.Ledger().GetEntry(0)->payload, first->serial);
  EXPECT_EQ(engine.tokens_spent(), 1u);

  // The token whose append failed went back to the wallet, and the update
  // was not applied.
  EXPECT_EQ(wallet.NumTokens(), 1u);
  EXPECT_EQ((*platforms_[0]->db.GetTable("worklog"))->size(), 0u);

  // The spent index equals the ledger: the ledgered serial is spent, the
  // serial whose append failed is not.
  wallet.PutForTest(*first);
  EXPECT_EQ(
      engine.SubmitVia(0, MakeWorklogUpdate("g2", "gina", 1, kDay)).code(),
      StatusCode::kAlreadyExists);
  EXPECT_TRUE(
      engine.SubmitVia(0, MakeWorklogUpdate("g3", "gina", 1, kDay)).ok());
  EXPECT_EQ(ordering.CommittedCount(), 2u);
  EXPECT_EQ(engine.tokens_spent(), 2u);
  EXPECT_EQ((*platforms_[0]->db.GetTable("worklog"))->size(), 1u);
}

bool SerialsAreDistinct(const ledger::LedgerDb& ledger) {
  std::set<Bytes> serials;
  for (uint64_t seq = 0; seq < ledger.size(); ++seq) {
    if (!serials.insert(ledger.GetEntry(seq)->payload).second) return false;
  }
  return true;
}

// The failed append's serial commits while the engine settles it: the
// token is spent, not refunded, and is never ledgered twice.
TEST_F(FederatedTokenEngineTest, SerialCommittedAfterFailedAppendIsSpent) {
  DeferredAppendOrdering ordering(/*fail_at=*/1, /*failing_flushes=*/0);
  std::vector<FederatedPlatform*> raw;
  for (auto& p : platforms_) raw.push_back(p.get());
  FederatedTokenEngine engine(raw, authority_, &ordering, "hours");
  auto& wallet = engine.WalletOf("hana");
  Status s = engine.SubmitVia(0, MakeWorklogUpdate("h1", "hana", 3, kDay));
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ordering.CommittedCount(), 2u);
  EXPECT_EQ(engine.tokens_spent(), 2u);
  EXPECT_EQ(wallet.NumTokens(), 1u);  // Only the token never appended.
  EXPECT_EQ((*platforms_[0]->db.GetTable("worklog"))->size(), 0u);

  ASSERT_TRUE(
      engine.SubmitVia(0, MakeWorklogUpdate("h2", "hana", 2, kDay)).ok());
  EXPECT_EQ(ordering.CommittedCount(), 4u);
  EXPECT_EQ(engine.tokens_spent(), 4u);
  EXPECT_TRUE(SerialsAreDistinct(ordering.Ledger()));
}

// The failed append stays in doubt (the settling Flush fails too) and
// commits with a later spend: the in-doubt token left the wallet, so its
// serial is still ledgered only once.
TEST_F(FederatedTokenEngineTest, InDoubtSerialStaysOutOfWallet) {
  DeferredAppendOrdering ordering(/*fail_at=*/1, /*failing_flushes=*/1);
  std::vector<FederatedPlatform*> raw;
  for (auto& p : platforms_) raw.push_back(p.get());
  FederatedTokenEngine engine(raw, authority_, &ordering, "hours");
  auto& wallet = engine.WalletOf("iris");
  Status s = engine.SubmitVia(0, MakeWorklogUpdate("i1", "iris", 3, kDay));
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  EXPECT_EQ(ordering.CommittedCount(), 1u);
  EXPECT_EQ(engine.tokens_spent(), 1u);
  EXPECT_EQ(wallet.NumTokens(), 1u);

  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(engine
                    .SubmitVia(0, MakeWorklogUpdate("i" + std::to_string(k + 2),
                                                    "iris", 1, kDay))
                    .ok());
  }
  EXPECT_EQ(ordering.CommittedCount(), 5u);  // Includes the in-doubt serial.
  EXPECT_TRUE(SerialsAreDistinct(ordering.Ledger()));
  ASSERT_TRUE(engine.SyncSpentFromLedger().ok());
}

// ------------------------------------------------- RC3 public-data engine

class PublicDataEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema attendees({{"name", ValueType::kString},
                      {"mode", ValueType::kString}});
    ASSERT_TRUE(db_.CreateTable("attendees", attendees).ok());
    ASSERT_TRUE(catalog_
                    .Add("capacity", constraint::ConstraintScope::kInternal,
                         constraint::ConstraintVisibility::kPublic,
                         "COUNT(attendees) + 1 <= 2")
                    .ok());
    std::vector<AttestationRequirement> reqs = {
        {"doses", constraint::BoundDirection::kLower, 2, 8}};
    engine_ = std::make_unique<PublicDataEngine>(
        &db_, &catalog_, reqs, &ordering_, crypto::PedersenParams::Test256());
  }

  PublicDataEngine::Submission MakeRegistration(const std::string& name,
                                                int64_t doses) {
    PublicDataEngine::Submission s;
    s.update.id = "reg-" + name;
    s.update.producer = name;
    s.update.timestamp = kDay;
    s.update.fields = {{"name", Value::String(name)}};
    s.update.mutation.op = Mutation::Op::kInsert;
    s.update.mutation.table = "attendees";
    s.update.mutation.row = {Value::String(name),
                             Value::String("in-person")};
    auto att = engine_->Attest(engine_->requirements()[0], doses, drbg_);
    if (att.ok()) s.attestations.push_back(std::move(*att));
    return s;
  }

  storage::Database db_;
  constraint::ConstraintCatalog catalog_;
  CentralizedOrdering ordering_;
  crypto::Drbg drbg_{uint64_t{11}};
  std::unique_ptr<PublicDataEngine> engine_;
};

TEST_F(PublicDataEngineTest, AcceptsVaccinatedRegistrant) {
  ASSERT_TRUE(engine_->Submit(MakeRegistration("ada", 2)).ok());
  ASSERT_TRUE(engine_->Submit(MakeRegistration("bob", 3)).ok());
  EXPECT_EQ((*db_.GetTable("attendees"))->size(), 2u);
  EXPECT_EQ(ordering_.CommittedCount(), 2u);
}

TEST_F(PublicDataEngineTest, UnvaccinatedCannotEvenAttest) {
  // With 1 dose, the producer cannot create a valid >= 2 attestation…
  auto att = engine_->Attest(engine_->requirements()[0], 1, drbg_);
  EXPECT_EQ(att.status().code(), StatusCode::kConstraintViolation);
  // …and a submission without one is rejected.
  PublicDataEngine::Submission s = MakeRegistration("eve", 1);
  EXPECT_TRUE(s.attestations.empty());
  EXPECT_EQ(engine_->Submit(s).code(), StatusCode::kConstraintViolation);
}

TEST_F(PublicDataEngineTest, ForeignAttestationRejected) {
  // Reusing someone else's attestation under a different requirement bound
  // fails verification (proof is bound to the commitment).
  PublicDataEngine::Submission s = MakeRegistration("mallory", 2);
  s.attestations[0].commitment.c =
      s.attestations[0].commitment.c + crypto::BigInt(1);
  EXPECT_EQ(engine_->Submit(s).code(), StatusCode::kConstraintViolation);
}

TEST_F(PublicDataEngineTest, PublicCapacityConstraintEnforced) {
  ASSERT_TRUE(engine_->Submit(MakeRegistration("a", 2)).ok());
  ASSERT_TRUE(engine_->Submit(MakeRegistration("b", 2)).ok());
  // Capacity 2: COUNT(attendees) + 1 <= 2 blocks the third registration.
  EXPECT_EQ(engine_->Submit(MakeRegistration("c", 2)).code(),
            StatusCode::kConstraintViolation);
}

TEST_F(PublicDataEngineTest, PirSnapshotServesRows) {
  ASSERT_TRUE(engine_->Submit(MakeRegistration("ada", 2)).ok());
  ASSERT_TRUE(engine_->Submit(MakeRegistration("bob", 2)).ok());
  auto snapshot = engine_->BuildPirSnapshot("attendees", 64);
  ASSERT_TRUE(snapshot.ok());
  pir::XorPirClient client(3);
  auto rec = client.Fetch(0, *snapshot->server0, *snapshot->server1);
  ASSERT_TRUE(rec.ok());
  // First row (key order) is "ada"; decode and check.
  BinaryReader r(*rec);
  auto name = storage::Value::DecodeFrom(r);
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, Value::String("ada"));
}

TEST_F(PublicDataEngineTest, SubmitUpdateRequiresNoRequirements) {
  Update u;
  u.id = "x";
  EXPECT_EQ(engine_->SubmitUpdate(u).code(), StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------- RC4 auditing

TEST(AuditorTest, DetectsHistoryRewriteBetweenAudits) {
  ledger::LedgerDb honest;
  for (int i = 0; i < 8; ++i) honest.Append(ToBytes("e" + std::to_string(i)), i);
  ledger::LedgerDigest observed = honest.Digest();
  for (int i = 8; i < 12; ++i) honest.Append(ToBytes("e" + std::to_string(i)), i);
  auto proof = honest.ProveConsistency(8, 12);
  ASSERT_TRUE(proof.ok());
  EXPECT_TRUE(
      IntegrityAuditor::CheckExtension(observed, honest.Digest(), *proof).ok());

  // A manager that rewrote history cannot produce a valid extension proof.
  ledger::LedgerDb rewritten;
  for (int i = 0; i < 12; ++i) {
    rewritten.Append(ToBytes("fake" + std::to_string(i)), i);
  }
  auto bad_proof = rewritten.ProveConsistency(8, 12);
  ASSERT_TRUE(bad_proof.ok());
  EXPECT_EQ(IntegrityAuditor::CheckExtension(observed, rewritten.Digest(),
                                             *bad_proof)
                .code(),
            StatusCode::kIntegrityViolation);
}

TEST(AuditorTest, DetectsShrunkLedger) {
  ledger::LedgerDb l;
  for (int i = 0; i < 5; ++i) l.Append(ToBytes("e"), i);
  ledger::LedgerDigest before = l.Digest();
  ledger::LedgerDigest shrunk{3, before.root};
  EXPECT_EQ(
      IntegrityAuditor::CheckExtension(before, shrunk, {}).code(),
      StatusCode::kIntegrityViolation);
}

TEST(AuditorTest, ReplicaAgreementAndDivergence) {
  ledger::LedgerDb a, b, c;
  for (int i = 0; i < 6; ++i) {
    Bytes e = ToBytes("e" + std::to_string(i));
    a.Append(e, i);
    b.Append(e, i);
    c.Append(e, i);
  }
  b.Append(ToBytes("extra"), 7);  // Lagging prefix is fine.
  EXPECT_TRUE(IntegrityAuditor::CheckReplicaAgreement({&a, &b, &c}).ok());
  ledger::LedgerDb diverged;
  for (int i = 0; i < 6; ++i) diverged.Append(ToBytes("evil"), i);
  EXPECT_EQ(
      IntegrityAuditor::CheckReplicaAgreement({&a, &diverged}).code(),
      StatusCode::kIntegrityViolation);
  EXPECT_FALSE(IntegrityAuditor::CheckReplicaAgreement({}).ok());
}

// --------------------------------------------------------------- DP index

TEST(DpIndexTest, RefusePolicyStopsAtBudget) {
  DpAggregateIndex index(1.0, 0.1, 1.0, DpExhaustionPolicy::kRefuse, 1);
  int successes = 0;
  for (int i = 0; i < 20; ++i) {
    if (index.Update(1).ok()) ++successes;
  }
  EXPECT_EQ(successes, 10);  // 1.0 / 0.1 releases, then refusal.
  EXPECT_TRUE(index.exhausted());
  EXPECT_EQ(index.true_value(), 20.0);  // Truth keeps moving; releases stop.
}

TEST(DpIndexTest, DegradePolicyNoiseExplodes) {
  DpAggregateIndex index(1.0, 0.1, 1.0, DpExhaustionPolicy::kDegrade, 2);
  double first_scale = 0, last_scale = 0;
  for (int i = 0; i < 40; ++i) {
    auto release = index.Update(1);
    ASSERT_TRUE(release.ok()) << i;
    if (i == 0) first_scale = release->noise_scale;
    last_scale = release->noise_scale;
  }
  // Geometric budget splitting: noise scale grows without bound.
  EXPECT_GT(last_scale, first_scale * 1000);
  EXPECT_LT(index.epsilon_remaining(), 1e-6);
}

TEST(DpIndexTest, NoisyValueTracksTruthEarly) {
  DpAggregateIndex index(10.0, 1.0, 1.0, DpExhaustionPolicy::kRefuse, 3);
  auto release = index.Update(100);
  ASSERT_TRUE(release.ok());
  // With eps=1, sensitivity 1, noise is O(1): the release is close to 100.
  EXPECT_NEAR(release->noisy_value, 100.0, 30.0);
}

}  // namespace
}  // namespace prever::core
