#include "core/demarcation_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "test_util.h"

namespace prever::core {
namespace {

using storage::Mutation;
using storage::Schema;
using storage::Value;
using storage::ValueType;

class DemarcationEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 3; ++i) {
      auto platform = std::make_unique<FederatedPlatform>();
      platform->id = "platform-" + std::to_string(i);
      ASSERT_TRUE(platform->db.CreateTable("worklog", WorklogSchema()).ok());
      platforms_.push_back(std::move(platform));
    }
    // 39-hour weekly cap splits evenly into 13 per platform.
    ASSERT_TRUE(regulations_
                    .Add("cap", constraint::ConstraintScope::kRegulation,
                         constraint::ConstraintVisibility::kPublic,
                         "SUM(worklog.hours WHERE worker = update.worker "
                         "WINDOW 7d) + update.hours <= 39")
                    .ok());
    std::vector<FederatedPlatform*> raw;
    for (auto& p : platforms_) raw.push_back(p.get());
    engine_ = std::make_unique<DemarcationEngine>(raw, &regulations_,
                                                  &ordering_);
  }

  std::vector<std::unique_ptr<FederatedPlatform>> platforms_;
  constraint::ConstraintCatalog regulations_;
  CentralizedOrdering ordering_;
  std::unique_ptr<DemarcationEngine> engine_;
};

TEST_F(DemarcationEngineTest, ValidatesRegulations) {
  EXPECT_TRUE(engine_->ValidateRegulations().ok());
  constraint::ConstraintCatalog lower;
  ASSERT_TRUE(lower
                  .Add("min", constraint::ConstraintScope::kRegulation,
                       constraint::ConstraintVisibility::kPublic,
                       "SUM(worklog.hours) >= 5")
                  .ok());
  std::vector<FederatedPlatform*> raw = {platforms_[0].get()};
  DemarcationEngine bad(raw, &lower, &ordering_);
  EXPECT_EQ(bad.ValidateRegulations().code(), StatusCode::kNotSupported);
}

TEST_F(DemarcationEngineTest, LocalAdmissionsNeedNoCommunication) {
  // 13 hours per platform fit the local limits exactly: zero transfers.
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 13, kDay)).ok());
  ASSERT_TRUE(engine_->SubmitVia(1, MakeWorklogUpdate("t2", "w1", 13, kDay)).ok());
  ASSERT_TRUE(engine_->SubmitVia(2, MakeWorklogUpdate("t3", "w1", 13, kDay)).ok());
  EXPECT_EQ(engine_->transfers(), 0u);
  EXPECT_EQ(engine_->local_admissions(), 3u);
}

TEST_F(DemarcationEngineTest, TransfersSlackWhenLocalLimitExceeded) {
  // 20 hours on platform 0 exceeds its 13-limit; it pulls slack from peers.
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 20, kDay)).ok());
  EXPECT_EQ(engine_->transfers(), 1u);
  // Global budget still enforced: total may reach 39 but not 40.
  ASSERT_TRUE(engine_->SubmitVia(1, MakeWorklogUpdate("t2", "w1", 19, kDay)).ok());
  Status s = engine_->SubmitVia(2, MakeWorklogUpdate("t3", "w1", 1, kDay));
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
}

TEST_F(DemarcationEngineTest, GlobalBoundNeverExceeded) {
  // Adversarial-ish stream: many small tasks from every platform; accepted
  // total must never exceed the 39-hour bound within one bucket.
  int64_t accepted_hours = 0;
  for (int i = 0; i < 30; ++i) {
    Update u = MakeWorklogUpdate("t" + std::to_string(i), "w1", 3, kDay);
    if (engine_->SubmitVia(i % 3, u).ok()) accepted_hours += 3;
  }
  EXPECT_LE(accepted_hours, 39);
  EXPECT_GE(accepted_hours, 37);  // And it does not under-admit badly.
}

TEST_F(DemarcationEngineTest, GroupsHaveIndependentBudgets) {
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 20, kDay)).ok());
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t2", "w2", 20, kDay)).ok());
}

TEST_F(DemarcationEngineTest, TumblingBucketsReset) {
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 39, kDay)).ok());
  EXPECT_FALSE(engine_->SubmitVia(0, MakeWorklogUpdate("t2", "w1", 1, 2 * kDay)).ok());
  // Next tumbling bucket (the following week): budget is fresh.
  EXPECT_TRUE(
      engine_->SubmitVia(0, MakeWorklogUpdate("t3", "w1", 39, kWeek + kDay)).ok());
}

TEST_F(DemarcationEngineTest, StatsAndLedger) {
  ASSERT_TRUE(engine_->SubmitVia(0, MakeWorklogUpdate("t1", "w1", 5, kDay)).ok());
  EXPECT_EQ(engine_->stats().accepted, 1u);
  EXPECT_EQ(ordering_.CommittedCount(), 1u);
}

/// Every budget of `engine` as (regulation, group, bucket, consumed, limit).
std::vector<std::tuple<size_t, std::string, uint64_t, std::vector<int64_t>,
                       std::vector<int64_t>>>
Budgets(const DemarcationEngine& engine) {
  std::vector<std::tuple<size_t, std::string, uint64_t, std::vector<int64_t>,
                         std::vector<int64_t>>>
      out;
  for (const auto& [key, state] : engine.budgets()) {
    out.emplace_back(key.regulation_index, key.group, key.bucket,
                     state.consumed, state.limit);
  }
  return out;
}

// A rejected update leaves every budget as it found it: an earlier
// regulation's consumption and limit transfer are not kept when a later
// regulation rejects, nor when the mutation itself cannot apply.
TEST_F(DemarcationEngineTest, RejectedUpdateConsumesNoBudget) {
  constraint::ConstraintCatalog two;
  ASSERT_TRUE(two.Add("weekly", constraint::ConstraintScope::kRegulation,
                      constraint::ConstraintVisibility::kPublic,
                      "SUM(worklog.hours WHERE worker = update.worker "
                      "WINDOW 7d) + update.hours <= 39")
                  .ok());
  ASSERT_TRUE(two.Add("total", constraint::ConstraintScope::kRegulation,
                      constraint::ConstraintVisibility::kPublic,
                      "SUM(worklog.hours WHERE worker = update.worker) + "
                      "update.hours <= 15")
                  .ok());
  std::vector<FederatedPlatform*> raw;
  for (auto& p : platforms_) raw.push_back(p.get());
  DemarcationEngine engine(raw, &two, &ordering_);
  ASSERT_TRUE(engine.SubmitVia(0, MakeWorklogUpdate("t1", "w1", 3, kDay)).ok());
  const auto budgets = Budgets(engine);
  ASSERT_EQ(budgets.size(), 2u);

  // 20 hours pass "weekly" only by pulling slack from the peers; "total"
  // (15 in all) rejects them.
  EXPECT_EQ(engine.SubmitVia(0, MakeWorklogUpdate("t2", "w1", 20, kDay)).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(Budgets(engine), budgets);

  // Both regulations admit this one, but its key is taken.
  EXPECT_EQ(engine.SubmitVia(0, MakeWorklogUpdate("t1", "w1", 1, kDay)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(Budgets(engine), budgets);
  EXPECT_EQ(engine.transfers(), 0u);
  EXPECT_EQ(engine.local_admissions(), 2u);  // One per regulation of t1.
  EXPECT_EQ(ordering_.CommittedCount(), 1u);
}

// Each linear form of a conjunctive regulation keeps its own budget: the
// tighter form's bound (10) holds, and its cost is not charged against the
// looser form's limits (40).
TEST_F(DemarcationEngineTest, ConjunctiveFormsHaveSeparateBudgets) {
  constraint::ConstraintCatalog both;
  ASSERT_TRUE(both.Add("both", constraint::ConstraintScope::kRegulation,
                       constraint::ConstraintVisibility::kPublic,
                       "SUM(worklog.hours WHERE worker = update.worker) + "
                       "update.hours <= 40 AND "
                       "SUM(worklog.hours WHERE worker = update.worker) + "
                       "update.hours <= 10")
                  .ok());
  std::vector<FederatedPlatform*> raw = {platforms_[0].get(),
                                         platforms_[1].get()};
  DemarcationEngine engine(raw, &both, &ordering_);
  ASSERT_TRUE(engine.ValidateRegulations().ok());
  ASSERT_TRUE(engine.SubmitVia(0, MakeWorklogUpdate("t1", "w1", 8, kDay)).ok());
  EXPECT_EQ(engine.SubmitVia(1, MakeWorklogUpdate("t2", "w1", 8, kDay)).code(),
            StatusCode::kConstraintViolation);
  EXPECT_EQ(engine.budgets().size(), 2u);
}

}  // namespace
}  // namespace prever::core
