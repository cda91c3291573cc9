// Tests for the causal tracing subsystem (src/obs/tracing.h): flight
// recorder semantics (wrap-around, concurrent writers vs snapshot readers),
// deterministic sampling, context propagation, Chrome trace-event export
// round-trip, and the zero-overhead contract from src/obs/trace.h.
//
// Suite names start with ObsTracing so the TSan job's gtest filter (Obs*)
// picks up the 8-thread stress test.

#include "obs/tracing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

#include "obs/json.h"

namespace prever::obs {
namespace {

TracerConfig EnabledConfig(size_t ring_capacity = 4096,
                           uint64_t sample_period = 1,
                           uint64_t sample_seed = 0) {
  TracerConfig cfg;
  cfg.enabled = true;
  cfg.sample_period = sample_period;
  cfg.sample_seed = sample_seed;
  cfg.ring_capacity = ring_capacity;
  return cfg;
}

/// Every test leaves the process-wide tracer the way benches and the sim
/// harness expect to find it: runtime-disabled.
class ObsTracing : public ::testing::Test {
 protected:
  void TearDown() override {
    Tracer::Get().SetEnabled(false);
    Tracer::SetThreadSimClock(nullptr);
  }
};

TEST_F(ObsTracing, DisabledRecordsNothing) {
  Tracer& tracer = Tracer::Get();
  TracerConfig cfg = EnabledConfig();
  cfg.enabled = false;
  tracer.Configure(cfg);
  EXPECT_FALSE(tracer.MintTrace().sampled());
  {
    TraceSpan root(TraceStage::kSubmit, 0, /*root=*/true);
    TraceSpan child(TraceStage::kVerify);
    tracer.Instant(Tracer::CurrentContext(), TraceStage::kBatchSeal);
  }
  EXPECT_EQ(tracer.events_recorded(), 0u);
  EXPECT_EQ(tracer.traces_minted(), 0u);
  EXPECT_TRUE(tracer.Snapshot().empty());
}

TEST_F(ObsTracing, SpanTreeIsConnectedAndNested) {
  Tracer& tracer = Tracer::Get();
  tracer.Configure(EnabledConfig());
  {
    TraceSpan root(TraceStage::kSubmit, 7, /*root=*/true);
    TraceContext root_ctx = Tracer::CurrentContext();
    ASSERT_TRUE(root_ctx.sampled());
    {
      TraceSpan verify(TraceStage::kVerify);
      EXPECT_EQ(Tracer::CurrentContext().trace_id, root_ctx.trace_id);
      EXPECT_NE(Tracer::CurrentContext().span_id, root_ctx.span_id);
    }
    // Leaving the child restores the parent as current.
    EXPECT_EQ(Tracer::CurrentContext().span_id, root_ctx.span_id);
  }
  // Outside the root no context remains installed.
  EXPECT_FALSE(Tracer::CurrentContext().sampled());

  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 4u);  // 2 begins + 2 ends.
  uint64_t root_span = 0;
  uint64_t child_parent = 0;
  std::set<uint64_t> trace_ids;
  for (const TraceEvent& e : events) {
    trace_ids.insert(e.trace_id);
    if (e.kind == TraceEventKind::kBegin) {
      if (e.stage == TraceStage::kSubmit) {
        root_span = e.span_id;
        EXPECT_EQ(e.parent_span_id, 0u);
        EXPECT_EQ(e.arg, 7u);
      } else {
        child_parent = e.parent_span_id;
      }
    }
  }
  EXPECT_EQ(trace_ids.size(), 1u);       // One connected trace...
  EXPECT_EQ(child_parent, root_span);    // ...with the child under the root.
}

TEST_F(ObsTracing, UnsampledContextStaysSilentEndToEnd) {
  Tracer& tracer = Tracer::Get();
  tracer.Configure(EnabledConfig());
  TraceContext null_ctx;  // An unsampled transaction's context.
  // Child-only API must not resurrect a dropped trace as a fresh root.
  TraceContext child = tracer.BeginChild(TraceStage::kLedgerAppend, null_ctx);
  EXPECT_FALSE(child.sampled());
  tracer.EndSpan(child, TraceStage::kLedgerAppend);
  tracer.Instant(null_ctx, TraceStage::kBatchJoin);
  EXPECT_EQ(tracer.events_recorded(), 0u);
  // Non-root TraceSpan with no current context is silent too.
  {
    TraceSpan orphan(TraceStage::kVerify);
  }
  EXPECT_EQ(tracer.events_recorded(), 0u);
}

TEST_F(ObsTracing, RingWrapAroundKeepsMostRecentEvents) {
  Tracer& tracer = Tracer::Get();
  tracer.Configure(EnabledConfig(/*ring_capacity=*/16));
  TraceContext ctx = tracer.MintTrace();
  ASSERT_TRUE(ctx.sampled());
  constexpr uint64_t kTotal = 100;
  for (uint64_t i = 0; i < kTotal; ++i) {
    tracer.Instant(ctx, TraceStage::kNetSend, /*arg=*/i);
  }
  std::vector<TraceEvent> events = tracer.Snapshot();
  ASSERT_EQ(events.size(), 16u);  // Capacity, not total.
  // The surviving window is exactly the newest records, oldest first.
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg, kTotal - 16 + i);
  }
  EXPECT_EQ(tracer.events_recorded(), kTotal);
}

TEST_F(ObsTracing, SamplingIsDeterministicUnderFixedSeed) {
  Tracer& tracer = Tracer::Get();
  auto sampled_pattern = [&] {
    tracer.Configure(EnabledConfig(4096, /*sample_period=*/4,
                                   /*sample_seed=*/1234));
    std::vector<bool> pattern;
    for (int i = 0; i < 256; ++i) {
      pattern.push_back(tracer.MintTrace().sampled());
    }
    return pattern;
  };
  std::vector<bool> first = sampled_pattern();
  std::vector<bool> second = sampled_pattern();
  EXPECT_EQ(first, second);  // Same seed + same mint order -> same keeps.
  size_t kept = 0;
  for (bool b : first) kept += b ? 1 : 0;
  EXPECT_GT(kept, 0u);       // Period 4 keeps roughly a quarter...
  EXPECT_LT(kept, first.size());  // ...and drops the rest.
  EXPECT_EQ(tracer.traces_minted(), 256u);
  EXPECT_EQ(tracer.traces_sampled(), kept);

  // A different seed picks a different subset (overwhelmingly likely for
  // 256 draws; both runs are deterministic either way).
  tracer.Configure(EnabledConfig(4096, 4, /*sample_seed=*/99));
  std::vector<bool> reseeded;
  for (int i = 0; i < 256; ++i) {
    reseeded.push_back(tracer.MintTrace().sampled());
  }
  EXPECT_NE(first, reseeded);
}

TEST_F(ObsTracing, EightThreadWritersWithConcurrentSnapshots) {
  Tracer& tracer = Tracer::Get();
  tracer.Configure(EnabledConfig(/*ring_capacity=*/256));
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 2000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&tracer, t] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        TraceSpan root(TraceStage::kSubmit, static_cast<uint64_t>(t),
                       /*root=*/true);
        TraceSpan child(TraceStage::kVerify);
        tracer.Instant(Tracer::CurrentContext(), TraceStage::kNetSend,
                       static_cast<uint64_t>(i));
      }
    });
  }
  // Concurrent readers: the ring is single-writer/any-reader by contract.
  for (int i = 0; i < 50; ++i) {
    std::vector<TraceEvent> snap = tracer.Snapshot();
    EXPECT_LE(snap.size(), static_cast<size_t>(kThreads + 1) * 256);
    (void)tracer.TailString(8);
  }
  for (std::thread& w : writers) w.join();
  // 5 events per iteration (2 begins, 2 ends, 1 instant) across all lanes.
  EXPECT_EQ(tracer.events_recorded(),
            static_cast<uint64_t>(kThreads) * kSpansPerThread * 5);
  EXPECT_EQ(tracer.traces_minted(),
            static_cast<uint64_t>(kThreads) * kSpansPerThread);
}

TEST_F(ObsTracing, ChromeJsonRoundTrip) {
  Tracer& tracer = Tracer::Get();
  tracer.Configure(EnabledConfig());
  {
    TraceSpan root(TraceStage::kSubmit, 0, /*root=*/true);
    { TraceSpan verify(TraceStage::kVerify); }
    tracer.Instant(Tracer::CurrentContext(), TraceStage::kBatchSeal, 3);
  }
  // One dangling begin: must be dropped from X events and counted.
  TraceContext dangling = tracer.BeginSpan(TraceStage::kConsensus);
  ASSERT_TRUE(dangling.sampled());

  std::string text = tracer.ChromeTraceDoc().Dump();
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& doc = *parsed;

  const Json* meta = doc.Find("prever");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->Find("schema")->AsString(), "prever.trace.v1");
  EXPECT_EQ(meta->Find("spans_exported")->AsUint64(), 2u);
  EXPECT_EQ(meta->Find("unmatched_begins_dropped")->AsUint64(), 1u);
  EXPECT_EQ(meta->Find("orphan_ends_dropped")->AsUint64(), 0u);

  const Json* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  size_t x_events = 0, instants = 0;
  uint64_t root_span = 0, child_parent = 0;
  for (size_t i = 0; i < events->size(); ++i) {
    const Json& ev = events->at(i);
    const std::string& ph = ev.Find("ph")->AsString();
    const Json* args = ev.Find("args");
    ASSERT_NE(args, nullptr);
    if (ph == "X") {
      ++x_events;
      EXPECT_NE(ev.Find("dur"), nullptr);
      EXPECT_NE(args->Find("dur_ns"), nullptr);
      if (ev.Find("name")->AsString() == "submit") {
        root_span = args->Find("span_id")->AsUint64();
      } else {
        child_parent = args->Find("parent_span_id")->AsUint64();
      }
    } else if (ph == "i") {
      ++instants;
      EXPECT_EQ(ev.Find("name")->AsString(), "batch_seal");
      EXPECT_EQ(args->Find("arg")->AsUint64(), 3u);
    }
  }
  EXPECT_EQ(x_events, 2u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(child_parent, root_span);  // Tree survives the round trip.
}

TEST_F(ObsTracing, TailStringNamesStagesForFailureReports) {
  Tracer& tracer = Tracer::Get();
  tracer.Configure(EnabledConfig());
  {
    TraceSpan root(TraceStage::kSubmit, 0, /*root=*/true);
    tracer.Instant(Tracer::CurrentContext(), TraceStage::kPbftPrepare, 42);
  }
  std::string tail = tracer.TailString(8);
  EXPECT_NE(tail.find("submit"), std::string::npos);
  EXPECT_NE(tail.find("pbft_prepare"), std::string::npos);
  EXPECT_NE(tail.find("arg=42"), std::string::npos);
  // Capped tail: asking for 1 returns exactly one line.
  std::string one = tracer.TailString(1);
  EXPECT_EQ(std::count(one.begin(), one.end(), '\n'), 1);
}

// The sim harness sets trace_unrooted_messages so SimNetwork mints a root
// per contextless message (consensus-only scenarios would otherwise record
// nothing). The flag must follow Configure and gate on the master switch.
TEST_F(ObsTracing, UnrootedMessageFlagFollowsConfigAndEnable) {
  Tracer& tracer = Tracer::Get();
  TracerConfig cfg = EnabledConfig();
  EXPECT_FALSE(tracer.trace_unrooted_messages());  // Default-off.
  cfg.trace_unrooted_messages = true;
  tracer.Configure(cfg);
  EXPECT_TRUE(tracer.trace_unrooted_messages());
  tracer.SetEnabled(false);  // Disabled tracer never asks for message roots.
  EXPECT_FALSE(tracer.trace_unrooted_messages());
  tracer.SetEnabled(true);
  EXPECT_TRUE(tracer.trace_unrooted_messages());
}

TEST_F(ObsTracing, ScopedContextInstallsAndRestores) {
  Tracer& tracer = Tracer::Get();
  tracer.Configure(EnabledConfig());
  TraceContext outer = tracer.MintTrace();
  ASSERT_TRUE(outer.sampled());
  {
    ScopedTraceContext scope(outer);
    EXPECT_EQ(Tracer::CurrentContext().span_id, outer.span_id);
    TraceContext inner = tracer.MintTrace();
    {
      ScopedTraceContext nested(inner);
      EXPECT_EQ(Tracer::CurrentContext().span_id, inner.span_id);
    }
    EXPECT_EQ(Tracer::CurrentContext().span_id, outer.span_id);
  }
  EXPECT_FALSE(Tracer::CurrentContext().sampled());
}

// Zero-overhead contract (src/obs/trace.h): with the tracer runtime-
// disabled, a begin/end span pair is one relaxed atomic load and a branch.
// Compared against an empty loop over the same volatile sink, the disabled
// path must stay within an order of magnitude — generous enough for CI
// noise, tight enough to catch an accidental allocation, lock, or ring
// write on the disabled path (each of which costs 10-100x more).
TEST_F(ObsTracing, DisabledSpanIsBranchCheap) {
  TracerConfig off;
  off.enabled = false;
  Tracer::Get().Configure(off);  // Reset counters; leave tracing disabled.
  constexpr int kIters = 200000;
  volatile uint64_t sink = 0;

  auto timed = [&](auto&& body) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kIters; ++i) {
      body();
      sink = sink + 1;
    }
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  // Warm up both paths, then measure; take the best of 3 to shed scheduler
  // noise on shared machines.
  int64_t base = INT64_MAX, traced = INT64_MAX;
  for (int round = 0; round < 3; ++round) {
    base = std::min(base, timed([] {}));
    traced = std::min(traced, timed([] {
      TraceSpan span(TraceStage::kSubmit);
      (void)span;
    }));
  }
  double per_span_ns =
      static_cast<double>(traced - base) / static_cast<double>(kIters);
  // One relaxed load + branch is ~1-3 ns; a ring write or allocation on
  // the disabled path would blow well past this bound. Sanitizer builds
  // instrument every atomic access (~100 ns under TSan), so they get a
  // ceiling that still catches a lock or allocation but not the
  // instrumentation itself.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr double kCeilingNs = 5000.0;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
  constexpr double kCeilingNs = 5000.0;
#else
  constexpr double kCeilingNs = 50.0;
#endif
#else
  constexpr double kCeilingNs = 50.0;
#endif
  EXPECT_LT(per_span_ns, kCeilingNs)
      << "disabled TraceSpan costs " << per_span_ns << " ns (base "
      << base << " ns, traced " << traced << " ns for " << kIters
      << " iters)";
  EXPECT_EQ(Tracer::Get().events_recorded(), 0u);
}

}  // namespace
}  // namespace prever::obs
