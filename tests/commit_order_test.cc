// The commit step (core::OrderThenApply) and the invariant it gives every
// engine: local state changes only once its ledger entry is known to be
// committed, so a failed append never leaves an engine ahead of its ledger.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/prever.h"
#include "test_util.h"

namespace prever::core {
namespace {

// ------------------------------------------------------------ The step

struct StepOutcome {
  StatusCode code;
  int applies = 0;
  bool unledgered = false;
};

StepOutcome RunStep(OrderingService& ordering, Status apply_status) {
  StepOutcome out;
  Status s = OrderThenApply(
      ordering, ToBytes("payload"), 1,
      [&] {
        ++out.applies;
        return apply_status;
      },
      &out.unledgered);
  out.code = s.code();
  return out;
}

TEST(OrderThenApplyTest, AppliesAfterTheAppend) {
  CentralizedOrdering ordering;
  uint64_t ledgered_at_apply = 0;
  Status s = OrderThenApply(ordering, ToBytes("payload"), 1, [&] {
    ledgered_at_apply = ordering.CommittedCount();
    return Status::Ok();
  });
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(ledgered_at_apply, 1u);
}

TEST(OrderThenApplyTest, SettledPayloadIsAppliedUnderTheAppendStatus) {
  DeferredAppendOrdering ordering(/*fail_at=*/0, /*failing_flushes=*/0);
  StepOutcome out = RunStep(ordering, Status::Ok());
  EXPECT_EQ(out.code, StatusCode::kUnavailable);
  EXPECT_EQ(out.applies, 1);
  EXPECT_FALSE(out.unledgered);
  EXPECT_EQ(ordering.CommittedCount(), 1u);
}

TEST(OrderThenApplyTest, PayloadOffTheLedgerIsNotApplied) {
  FailingAppendOrdering ordering(/*fail_at=*/0);
  StepOutcome out = RunStep(ordering, Status::Ok());
  EXPECT_EQ(out.code, StatusCode::kUnavailable);
  EXPECT_EQ(out.applies, 0);
  EXPECT_TRUE(out.unledgered);
  EXPECT_EQ(ordering.CommittedCount(), 0u);
}

TEST(OrderThenApplyTest, InDoubtPayloadIsNeitherAppliedNorUnledgered) {
  DeferredAppendOrdering ordering(/*fail_at=*/0, /*failing_flushes=*/1);
  StepOutcome out = RunStep(ordering, Status::Ok());
  EXPECT_EQ(out.code, StatusCode::kUnavailable);
  EXPECT_EQ(out.applies, 0);
  EXPECT_FALSE(out.unledgered);
}

TEST(OrderThenApplyTest, ApplyFailingAfterOrderingIsInternal) {
  CentralizedOrdering ordering;
  StepOutcome out = RunStep(ordering, Status::NotFound("gone"));
  EXPECT_EQ(out.code, StatusCode::kInternal);
  EXPECT_EQ(out.applies, 1);
  EXPECT_EQ(ordering.CommittedCount(), 1u);
}

// ------------------------------------------- Every engine, failed append

/// One engine over a given ordering service: how to submit, and the views
/// of its local state that must each count exactly the ledger's entries
/// (every test update is one hour, so budgets count in entries too).
struct EngineRig {
  std::function<Status(const Update&)> submit;
  std::vector<std::pair<std::string, std::function<uint64_t()>>> views;
};

uint64_t WorklogRows(const storage::Database& db) {
  return (*db.GetTable("worklog"))->size();
}

/// Two federated platforms under one generous windowless SUM regulation.
struct Federation {
  Federation() {
    for (int i = 0; i < 2; ++i) {
      auto p = std::make_unique<FederatedPlatform>();
      p->id = "p" + std::to_string(i);
      (void)p->db.CreateTable("worklog", WorklogSchema());
      platforms.push_back(std::move(p));
    }
    (void)regulations.Add("cap", constraint::ConstraintScope::kRegulation,
                          constraint::ConstraintVisibility::kPublic,
                          "SUM(worklog.hours WHERE worker = update.worker) + "
                          "update.hours <= 100");
  }
  std::vector<FederatedPlatform*> Raw() const {
    std::vector<FederatedPlatform*> raw;
    for (const auto& p : platforms) raw.push_back(p.get());
    return raw;
  }
  uint64_t HomeRows() const { return WorklogRows(platforms[0]->db); }

  std::vector<std::unique_ptr<FederatedPlatform>> platforms;
  constraint::ConstraintCatalog regulations;
};

using EngineFactory = std::function<EngineRig(OrderingService*)>;

std::vector<std::pair<std::string, EngineFactory>> AllEngines() {
  std::vector<std::pair<std::string, EngineFactory>> engines;
  engines.emplace_back("plaintext", [](OrderingService* ordering) {
    struct S {
      storage::Database db;
      constraint::ConstraintCatalog catalog;
      std::unique_ptr<PlaintextEngine> engine;
    };
    auto s = std::make_shared<S>();
    (void)s->db.CreateTable("worklog", WorklogSchema());
    s->engine = std::make_unique<PlaintextEngine>(&s->db, &s->catalog,
                                                  ordering);
    // The rig's lambdas hold `s`, keeping the engine and its state alive.
    EngineRig rig;
    rig.submit = [s](const Update& u) { return s->engine->SubmitUpdate(u); };
    rig.views.emplace_back("db rows", [s] { return WorklogRows(s->db); });
    return rig;
  });
  engines.emplace_back("public-data", [](OrderingService* ordering) {
    struct S {
      storage::Database db;
      constraint::ConstraintCatalog catalog;
      std::unique_ptr<PublicDataEngine> engine;
    };
    auto s = std::make_shared<S>();
    (void)s->db.CreateTable("worklog", WorklogSchema());
    s->engine = std::make_unique<PublicDataEngine>(
        &s->db, &s->catalog, std::vector<AttestationRequirement>{}, ordering,
        crypto::PedersenParams::Test256());
    EngineRig rig;
    rig.submit = [s](const Update& u) { return s->engine->SubmitUpdate(u); };
    rig.views.emplace_back("db rows", [s] { return WorklogRows(s->db); });
    return rig;
  });
  engines.emplace_back("encrypted", [](OrderingService* ordering) {
    struct S {
      DataOwner owner{256, crypto::PedersenParams::Test256(), 7};
      std::unique_ptr<EncryptedEngine> engine;
    };
    auto s = std::make_shared<S>();
    std::vector<RegulatedBound> bounds = {
        {constraint::BoundDirection::kUpper, 100, 0, 8}};
    s->engine = std::make_unique<EncryptedEngine>(
        &s->owner, ordering, "worker", "hours", bounds, /*value_bits=*/4, 3);
    EngineRig rig;
    rig.submit = [s](const Update& u) { return s->engine->SubmitUpdate(u); };
    rig.views.emplace_back("sealed rows",
                           [s] { return s->engine->NumRows("w1"); });
    return rig;
  });
  engines.emplace_back("mpc", [](OrderingService* ordering) {
    struct S {
      Federation fed;
      std::unique_ptr<FederatedMpcEngine> engine;
    };
    auto s = std::make_shared<S>();
    s->engine = std::make_unique<FederatedMpcEngine>(
        s->fed.Raw(), &s->fed.regulations, ordering, /*dealer_seed=*/5);
    EngineRig rig;
    rig.submit = [s](const Update& u) { return s->engine->SubmitVia(0, u); };
    rig.views.emplace_back("db rows", [s] { return s->fed.HomeRows(); });
    return rig;
  });
  engines.emplace_back("threshold", [](OrderingService* ordering) {
    struct S {
      Federation fed;
      std::unique_ptr<FederatedThresholdEngine> engine;
    };
    auto s = std::make_shared<S>();
    s->engine = std::make_unique<FederatedThresholdEngine>(
        s->fed.Raw(), &s->fed.regulations, ordering,
        crypto::PedersenParams::Test256(), /*seed=*/9);
    EngineRig rig;
    rig.submit = [s](const Update& u) { return s->engine->SubmitVia(0, u); };
    rig.views.emplace_back("db rows", [s] { return s->fed.HomeRows(); });
    return rig;
  });
  engines.emplace_back("demarcation", [](OrderingService* ordering) {
    struct S {
      Federation fed;
      std::unique_ptr<DemarcationEngine> engine;
    };
    auto s = std::make_shared<S>();
    s->engine = std::make_unique<DemarcationEngine>(
        s->fed.Raw(), &s->fed.regulations, ordering);
    EngineRig rig;
    rig.submit = [s](const Update& u) { return s->engine->SubmitVia(0, u); };
    rig.views.emplace_back("db rows", [s] { return s->fed.HomeRows(); });
    rig.views.emplace_back("consumed budget", [s] {
      int64_t consumed = 0;
      for (const auto& [key, state] : s->engine->budgets()) {
        for (int64_t c : state.consumed) consumed += c;
      }
      return static_cast<uint64_t>(consumed);
    });
    return rig;
  });
  engines.emplace_back("token", [](OrderingService* ordering) {
    struct S {
      Federation fed;
      token::TokenAuthority authority{512, 100, kWeek, 11};
      std::unique_ptr<FederatedTokenEngine> engine;
    };
    auto s = std::make_shared<S>();
    s->engine = std::make_unique<FederatedTokenEngine>(
        s->fed.Raw(), &s->authority, ordering, "hours");
    EngineRig rig;
    rig.submit = [s](const Update& u) { return s->engine->SubmitVia(0, u); };
    // The token ledger holds spent serials, so the spent index is the view
    // that must match it; the update itself is applied only after all of
    // its serials are ordered.
    rig.views.emplace_back("spent serials",
                           [s] { return s->engine->tokens_spent(); });
    return rig;
  });
  return engines;
}

// Three one-hour updates; the second one's append fails. The settling
// Flush either commits it (the step applies it and still reports the
// append's failure) or leaves it off the ledger (nothing is applied).
// After every submit, each engine's local state counts the ledger.
TEST(CommitOrderTest, FailedAppendLeavesEveryEngineAtItsLedger) {
  for (const auto& [name, make] : AllEngines()) {
    for (bool settles : {true, false}) {
      SCOPED_TRACE(name + (settles ? ", settling Flush commits the payload"
                                   : ", payload never reaches the ledger"));
      std::unique_ptr<OrderingService> ordering;
      if (settles) {
        ordering = std::make_unique<DeferredAppendOrdering>(
            /*fail_at=*/1, /*failing_flushes=*/0);
      } else {
        ordering = std::make_unique<FailingAppendOrdering>(/*fail_at=*/1);
      }
      EngineRig rig = make(ordering.get());
      for (int i = 0; i < 3; ++i) {
        Status s = rig.submit(MakeWorklogUpdate("t" + std::to_string(i), "w1",
                                                1, kDay + i));
        EXPECT_EQ(s.code(),
                  i == 1 ? StatusCode::kUnavailable : StatusCode::kOk)
            << "update " << i << ": " << s.ToString();
        const uint64_t ledgered = ordering->CommittedCount();
        const int expected = settles || i == 0 ? i + 1 : i;
        EXPECT_EQ(ledgered, static_cast<uint64_t>(expected));
        for (const auto& [view, count] : rig.views) {
          EXPECT_EQ(count(), ledgered) << view << " after update " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace prever::core
