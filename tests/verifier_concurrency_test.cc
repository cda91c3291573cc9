// Concurrency contract of CompiledVerifier: any number of threads may call
// VerifyAll / EvaluateAggregate on one verifier concurrently — the steady
// state rides a shared lock over the incremental aggregate cache, cache
// misses (first touch, window slides) upgrade to the unique-lock slow path
// through double-checked locking. scripts/check.sh runs this suite under
// ThreadSanitizer (filter: *AggCacheConcurrency*), so a data race between
// the read path and the maintenance path fails the gate, not just a flaky
// assertion here.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "constraint/constraint.h"
#include "constraint/eval.h"
#include "constraint/parser.h"
#include "constraint/verifier.h"
#include "storage/database.h"

namespace prever {
namespace {

using storage::Mutation;
using storage::Schema;
using storage::Value;
using storage::ValueType;

class AggCacheConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema worklog({{"id", ValueType::kString},
                    {"worker", ValueType::kString},
                    {"hours", ValueType::kInt64},
                    {"at", ValueType::kTimestamp}});
    ASSERT_TRUE(db_.CreateTable("worklog", worklog).ok());
    for (int i = 0; i < 64; ++i) {
      Mutation m;
      m.op = Mutation::Op::kInsert;
      m.table = "worklog";
      m.row = {Value::String("r" + std::to_string(i)),
               Value::String("w" + std::to_string(i % 4)),
               Value::Int64(i % 7),
               Value::Timestamp(static_cast<SimTime>(i) * kHour)};
      ASSERT_TRUE(db_.Apply(m).ok());
    }
    ASSERT_TRUE(catalog_
                    .Add("cap", constraint::ConstraintScope::kInternal,
                         constraint::ConstraintVisibility::kPublic,
                         "SUM(worklog.hours WHERE worker = update.worker "
                         "WINDOW 2d) + update.hours <= 100000")
                    .ok());
    ASSERT_TRUE(catalog_
                    .Add("floor", constraint::ConstraintScope::kInternal,
                         constraint::ConstraintVisibility::kPublic,
                         "update.hours >= 0")
                    .ok());
  }

  storage::Database db_;
  constraint::ConstraintCatalog catalog_;
};

TEST_F(AggCacheConcurrencyTest, ParallelVerifyAllSharesTheCache) {
  constraint::CompiledVerifier verifier(catalog_, db_);
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        constraint::UpdateFields update = {
            {"worker", Value::String("w" + std::to_string((t + i) % 4))},
            {"hours", Value::Int64(1)}};
        // Occasional `now` advances force window-cursor maintenance (the
        // unique-lock path) interleaved with fast-path readers.
        SimTime now = 64 * kHour + static_cast<SimTime>(i / 50) * kHour;
        constraint::EvalContext ctx{&db_, &update, now};
        if (!verifier.VerifyAll(ctx).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // Two settled calls at one instant: the first parks the window cursor,
  // the second must ride the shared-lock fast path deterministically.
  constraint::UpdateFields update = {{"worker", Value::String("w0")},
                                     {"hours", Value::Int64(1)}};
  constraint::EvalContext settled{&db_, &update, 70 * kHour};
  EXPECT_TRUE(verifier.VerifyAll(settled).ok());
  EXPECT_TRUE(verifier.VerifyAll(settled).ok());
  auto stats = verifier.stats();
  // The steady state must actually exercise the shared-lock fast path; if
  // every call fell through to the slow path the contract being tested
  // here (concurrent cache READS) would be vacuous.
  EXPECT_GT(stats.fast_path_verifies, 0u);
  EXPECT_GT(stats.compiled_constraints, 0u);
}

TEST_F(AggCacheConcurrencyTest, ParallelAdhocAggregatesShareTheCache) {
  constraint::CompiledVerifier verifier(catalog_, db_);
  auto parsed = constraint::ParseConstraint(
      "SUM(worklog.hours WHERE worker = update.worker WINDOW 2d)");
  ASSERT_TRUE(parsed.ok());
  const constraint::Expr& agg = **parsed;
  constexpr int kThreads = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        constraint::UpdateFields update = {
            {"worker", Value::String("w" + std::to_string((t + i) % 4))}};
        constraint::EvalContext ctx{&db_, &update, 64 * kHour};
        auto v = verifier.EvaluateAggregate(agg, ctx);
        if (!v.ok() || *v < 0) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace prever
