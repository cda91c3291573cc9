// One instrumentation point: every engine's metrics and causal spans come
// from the same submit scope and phase primitive, so they must agree. Each
// of the seven engines runs three updates over CentralizedOrdering — one
// accepted, one a regulation rejects, one malformed — with the tracer
// sampling every transaction, and the test checks that
//  (a) phase time never exceeds submit time,
//  (b) every engine phase span descends from a submit root of its trace,
//  (c) each phase histogram gained exactly as many samples as there are
//      causal spans of that stage, and
//  (d) every rejection is labelled with the stage that turned it away.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/prever.h"
#include "obs/registry.h"
#include "obs/tracing.h"
#include "test_util.h"

namespace prever::core {
namespace {

constexpr const char* kStages[] = {"input", "verify", "crypto", "token",
                                   "ledger"};
struct PhaseStage {
  const char* label;
  obs::TraceStage stage;
};
constexpr PhaseStage kPhases[] = {
    {"verify", obs::TraceStage::kVerify},
    {"crypto", obs::TraceStage::kCrypto},
    {"token", obs::TraceStage::kToken},
    {"ledger", obs::TraceStage::kLedgerPhase},
};
constexpr int64_t kCap = 10;
const char* const kRegulation =
    "SUM(worklog.hours WHERE worker = update.worker WINDOW 7d) + "
    "update.hours <= 10";

/// One engine's metric families in the default registry, read as totals so
/// the test can take deltas (other tests share the process-wide families).
struct EngineReading {
  obs::HistogramSnapshot submit;
  std::map<std::string, obs::HistogramSnapshot> phase;
  std::map<std::string, uint64_t> rejections;

  static EngineReading Take(const std::string& engine) {
    obs::Registry& reg = obs::Registry::Default();
    EngineReading r;
    r.submit =
        reg.GetHistogram("prever_engine_submit_ns", {{"engine", engine}})
            ->snapshot();
    for (const PhaseStage& p : kPhases) {
      r.phase[p.label] = reg.GetHistogram("prever_engine_phase_ns",
                                          {{"engine", engine},
                                           {"phase", p.label}})
                             ->snapshot();
    }
    for (const char* stage : kStages) {
      r.rejections[stage] =
          reg.GetCounter("prever_engine_rejections_total",
                         {{"engine", engine}, {"stage", stage}})
              ->value();
    }
    return r;
  }
};

/// The stage whose rejection counter moved between two readings; "none"
/// when none did, "several" when more than one did.
std::string RejectionStage(const EngineReading& before,
                           const EngineReading& after) {
  std::string moved = "none";
  for (const char* stage : kStages) {
    uint64_t delta = after.rejections.at(stage) - before.rejections.at(stage);
    if (delta == 0) continue;
    moved = (moved == "none" && delta == 1) ? stage : "several";
  }
  return moved;
}

void TraceEverything() {
  obs::TracerConfig config;
  config.enabled = true;
  config.sample_period = 1;
  config.ring_capacity = 1 << 16;
  obs::Tracer::Get().Configure(config);
}

uint64_t CountBegins(const std::vector<obs::TraceEvent>& events,
                     obs::TraceStage stage) {
  uint64_t n = 0;
  for (const obs::TraceEvent& e : events) {
    n += e.kind == obs::TraceEventKind::kBegin && e.stage == stage;
  }
  return n;
}

/// A worklog update whose `hours` is not an integer.
Update MalformedUpdate() {
  Update u = MakeWorklogUpdate("bad", "w1", 1, 3 * kDay);
  u.fields["hours"] = storage::Value::String("many");
  return u;
}

class EngineMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(regulations_
                    .Add("cap", constraint::ConstraintScope::kRegulation,
                         constraint::ConstraintVisibility::kPublic,
                         kRegulation)
                    .ok());
    ASSERT_TRUE(db_.CreateTable("worklog", WorklogSchema()).ok());
    for (int i = 0; i < 3; ++i) {
      auto p = std::make_unique<FederatedPlatform>();
      p->id = "platform-" + std::to_string(i);
      ASSERT_TRUE(p->db.CreateTable("worklog", WorklogSchema()).ok());
      platforms_.push_back(p.get());
      owned_.push_back(std::move(p));
    }
  }

  /// Submits the three updates through `engine` with every transaction
  /// traced, checks (a)-(c), and returns the rejection stage of the
  /// violating and the malformed update, in that order.
  std::vector<std::string> Drive(UpdateEngine& engine) {
    const std::string name = engine.name();
    const std::vector<Update> updates = {
        MakeWorklogUpdate("ok", "w1", 6, kDay),
        MakeWorklogUpdate("over", "w1", kCap - 5, 2 * kDay),
        MalformedUpdate(),
    };
    TraceEverything();
    const EngineReading start = EngineReading::Take(name);
    std::vector<std::string> stages;
    EngineReading before = start;
    for (size_t i = 0; i < updates.size(); ++i) {
      Status s = engine.SubmitUpdate(updates[i]);
      EngineReading after = EngineReading::Take(name);
      if (i == 0) {
        EXPECT_TRUE(s.ok()) << name << ": " << s.ToString();
        EXPECT_EQ(RejectionStage(before, after), "none") << name;
      } else {
        EXPECT_FALSE(s.ok()) << name << " accepted " << updates[i].id;
        stages.push_back(RejectionStage(before, after));
      }
      if (i == 1) {
        EXPECT_EQ(s.code(), StatusCode::kConstraintViolation)
            << name << ": " << s.ToString();
      }
      before = std::move(after);
    }
    std::vector<obs::TraceEvent> events = obs::Tracer::Get().Snapshot();
    obs::Tracer::Get().SetEnabled(false);
    const EngineReading& end = before;

    EngineStats stats = engine.stats();
    EXPECT_EQ(stats.submitted, 3u) << name;
    EXPECT_EQ(stats.accepted, 1u) << name;
    EXPECT_EQ(end.submit.count - start.submit.count, 3u) << name;

    // (a) Every phase runs inside the submit scope.
    uint64_t phase_ns = 0;
    for (const PhaseStage& p : kPhases) {
      phase_ns += end.phase.at(p.label).sum - start.phase.at(p.label).sum;
    }
    EXPECT_LE(phase_ns, end.submit.sum - start.submit.sum) << name;

    // (b) Every engine phase span descends from a submit root of its trace.
    std::unordered_map<uint64_t, const obs::TraceEvent*> begins;
    for (const obs::TraceEvent& e : events) {
      if (e.kind == obs::TraceEventKind::kBegin) begins[e.span_id] = &e;
    }
    for (const obs::TraceEvent& e : events) {
      if (e.kind != obs::TraceEventKind::kBegin) continue;
      bool is_phase = false;
      for (const PhaseStage& p : kPhases) is_phase |= e.stage == p.stage;
      if (!is_phase) continue;
      const obs::TraceEvent* node = &e;
      while (node->parent_span_id != 0) {
        auto it = begins.find(node->parent_span_id);
        if (it == begins.end()) break;
        node = it->second;
        EXPECT_EQ(node->trace_id, e.trace_id) << name;
      }
      EXPECT_EQ(node->parent_span_id, 0u)
          << name << ": " << obs::TraceStageName(e.stage)
          << " span has a missing ancestor";
      EXPECT_EQ(node->stage, obs::TraceStage::kSubmit)
          << name << ": " << obs::TraceStageName(e.stage)
          << " span is rooted at " << obs::TraceStageName(node->stage);
    }
    EXPECT_EQ(CountBegins(events, obs::TraceStage::kSubmit), 3u) << name;

    // (c) Histograms and causal spans count the same phases.
    for (const PhaseStage& p : kPhases) {
      EXPECT_EQ(CountBegins(events, p.stage),
                end.phase.at(p.label).count - start.phase.at(p.label).count)
          << name << " phase " << p.label;
    }
    return stages;
  }

  constraint::ConstraintCatalog regulations_;
  storage::Database db_;
  std::vector<std::unique_ptr<FederatedPlatform>> owned_;
  std::vector<FederatedPlatform*> platforms_;
  CentralizedOrdering ordering_;
};

// (d) The rejection stages: the violating update is turned away by the
// phase that evaluates the regulation, the malformed one by the first
// step that reads `hours`.

TEST_F(EngineMetricsTest, Plaintext) {
  PlaintextEngine engine(&db_, &regulations_, &ordering_);
  EXPECT_EQ(Drive(engine), (std::vector<std::string>{"verify", "verify"}));
}

TEST_F(EngineMetricsTest, PublicData) {
  PublicDataEngine engine(&db_, &regulations_, {}, &ordering_,
                          crypto::PedersenParams::Test256());
  EXPECT_EQ(Drive(engine), (std::vector<std::string>{"verify", "verify"}));
}

TEST_F(EngineMetricsTest, PublicDataSubmitUpdateWithRequirements) {
  // The base-class path is refused before any phase when attestations are
  // required — but still inside the submit scope, with its trace root.
  PublicDataEngine engine(&db_, &regulations_,
                          {{"doses", constraint::BoundDirection::kLower, 2, 8}},
                          &ordering_, crypto::PedersenParams::Test256());
  TraceEverything();
  EngineReading before = EngineReading::Take(engine.name());
  Status s = engine.SubmitUpdate(MakeWorklogUpdate("ok", "w1", 6, kDay));
  EngineReading after = EngineReading::Take(engine.name());
  std::vector<obs::TraceEvent> events = obs::Tracer::Get().Snapshot();
  obs::Tracer::Get().SetEnabled(false);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(RejectionStage(before, after), "input");
  EXPECT_EQ(after.submit.count - before.submit.count, 1u);
  EXPECT_EQ(CountBegins(events, obs::TraceStage::kSubmit), 1u);
}

TEST_F(EngineMetricsTest, Encrypted) {
  DataOwner owner(256, crypto::PedersenParams::Test256(), 77);
  EncryptedEngine engine(&owner, &ordering_, "worker", "hours",
                         {{constraint::BoundDirection::kUpper, kCap, kWeek, 8}},
                         /*value_bits=*/8, /*seed=*/5);
  EXPECT_EQ(Drive(engine), (std::vector<std::string>{"verify", "crypto"}));
}

TEST_F(EngineMetricsTest, FederatedMpc) {
  FederatedMpcEngine engine(platforms_, &regulations_, &ordering_, 9);
  EXPECT_EQ(Drive(engine), (std::vector<std::string>{"verify", "verify"}));
}

TEST_F(EngineMetricsTest, FederatedThreshold) {
  FederatedThresholdEngine engine(platforms_, &regulations_, &ordering_,
                                  crypto::PedersenParams::Test256(), 9);
  EXPECT_EQ(Drive(engine), (std::vector<std::string>{"crypto", "crypto"}));
}

TEST_F(EngineMetricsTest, Demarcation) {
  DemarcationEngine engine(platforms_, &regulations_, &ordering_);
  EXPECT_EQ(Drive(engine), (std::vector<std::string>{"verify", "verify"}));
}

TEST_F(EngineMetricsTest, FederatedToken) {
  token::TokenAuthority authority(512, kCap, kWeek, 7);
  FederatedTokenEngine engine(platforms_, &authority, &ordering_, "hours");
  // Budget exhausted while drawing tokens; the cost field is checked
  // before any phase opens.
  EXPECT_EQ(Drive(engine), (std::vector<std::string>{"token", "input"}));
}

}  // namespace
}  // namespace prever::core
