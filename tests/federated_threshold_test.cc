#include "core/federated_threshold_engine.h"

#include <gtest/gtest.h>

#include "core/auditor.h"
#include "test_util.h"

namespace prever::core {
namespace {

using storage::Mutation;
using storage::Schema;
using storage::Value;
using storage::ValueType;

class FederatedThresholdEngineTest : public ::testing::Test {
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
    engine_ = std::make_unique<FederatedThresholdEngine>(
        raw, &regulations_, &ordering_,
        crypto::PedersenParams::Test256(), 2024);
  }

  std::vector<std::unique_ptr<FederatedPlatform>> platforms_;
  constraint::ConstraintCatalog regulations_;
  CentralizedOrdering ordering_;
  std::unique_ptr<FederatedThresholdEngine> engine_;
};

TEST_F(FederatedThresholdEngineTest, EnforcesCrossPlatformCapWithoutDealer) {
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 18, kDay)).ok());
  ASSERT_TRUE(engine_->SubmitVia(1, MakeWorklogUpdate("t2", "w1", 15, 2 * kDay)).ok());
  ASSERT_TRUE(engine_->SubmitVia(2, MakeWorklogUpdate("t3", "w1", 6, 3 * kDay)).ok());
  // Total 39; two more hours would breach 40 even though every platform's
  // local view is small.
  Status s = engine_->SubmitVia(1, MakeWorklogUpdate("t4", "w1", 2, 3 * kDay));
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  EXPECT_EQ(engine_->stats().accepted, 3u);
  EXPECT_EQ(ordering_.CommittedCount(), 3u);
  // One joint decryption per regulation check.
  EXPECT_EQ(engine_->totals_opened(), 4u);
}

TEST_F(FederatedThresholdEngineTest, WindowExpiryWorks) {
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 40, kDay)).ok());
  EXPECT_FALSE(engine_->SubmitVia(1, MakeWorklogUpdate("t2", "w1", 1, 2 * kDay)).ok());
  EXPECT_TRUE(
      engine_->SubmitVia(1, MakeWorklogUpdate("t3", "w1", 40, 10 * kDay)).ok());
}

TEST_F(FederatedThresholdEngineTest, WorkersIndependent) {
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 40, kDay)).ok());
  EXPECT_TRUE(engine_->SubmitVia(2, MakeWorklogUpdate("t2", "w2", 40, kDay)).ok());
}

TEST_F(FederatedThresholdEngineTest, LocalDataStaysLocal) {
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 10, kDay)).ok());
  ASSERT_TRUE(engine_->SubmitVia(1, MakeWorklogUpdate("t2", "w1", 10, kDay)).ok());
  EXPECT_EQ((*platforms_[0]->db.GetTable("worklog"))->size(), 1u);
  EXPECT_EQ((*platforms_[1]->db.GetTable("worklog"))->size(), 1u);
  EXPECT_EQ((*platforms_[2]->db.GetTable("worklog"))->size(), 0u);
}

TEST_F(FederatedThresholdEngineTest, InternalConstraintsStillLocal) {
  ASSERT_TRUE(platforms_[0]
                  ->internal_constraints
                  .Add("max-shift", constraint::ConstraintScope::kInternal,
                       constraint::ConstraintVisibility::kPrivate,
                       "update.hours <= 12")
                  .ok());
  EXPECT_EQ(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 14, kDay)).code(),
            StatusCode::kConstraintViolation);
  EXPECT_TRUE(engine_->SubmitVia(1, MakeWorklogUpdate("t2", "w1", 14, kDay)).ok());
}

TEST_F(FederatedThresholdEngineTest, ReplacedRegulationIsNotServedStale) {
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

TEST_F(FederatedThresholdEngineTest, InvalidPlatformRejected) {
  EXPECT_FALSE(engine_->SubmitVia(9, MakeWorklogUpdate("t1", "w1", 1, kDay)).ok());
}

}  // namespace
}  // namespace prever::core
