// Tests for src/obs: counters, log-bucketed histograms (percentile accuracy,
// merge/delta, concurrent recording), the labeled registry, exposition
// round-trips, and the RAII tracing spans.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace prever::obs {
namespace {

// ------------------------------------------------------------- primitives

TEST(CounterTest, IncrementAndRead) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(10.5);
  g.Add(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), 7.25);
}

// ------------------------------------------------------------ bucket math

TEST(HistogramTest, BucketBoundsAreContiguousAndContainIndex) {
  // Every bucket's range must start one past the previous bucket's end, and
  // BucketIndex(v) must return a bucket whose [lower, upper] contains v.
  uint64_t expected_lower = 0;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketLower(i), expected_lower) << "bucket " << i;
    ASSERT_GE(Histogram::BucketUpper(i), Histogram::BucketLower(i));
    expected_lower = Histogram::BucketUpper(i) + 1;
    if (expected_lower == 0) break;  // Wrapped past uint64 max: last bucket.
  }
  for (uint64_t v : {0ull, 1ull, 15ull, 16ull, 17ull, 100ull, 1023ull,
                     1024ull, 123456789ull, ~0ull}) {
    int i = Histogram::BucketIndex(v);
    ASSERT_GE(i, 0);
    ASSERT_LT(i, Histogram::kNumBuckets);
    EXPECT_LE(Histogram::BucketLower(i), v);
    EXPECT_GE(Histogram::BucketUpper(i), v);
  }
}

// ------------------------------------------------------------ percentiles

TEST(HistogramTest, EmptyHistogramReportsZeros) {
  Histogram h;
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.Percentile(50), 0u);
  EXPECT_EQ(s.Percentile(99.9), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(HistogramTest, SmallValuesAreExact) {
  // Values < 16 land in unit buckets, so percentiles are exact.
  Histogram h;
  for (uint64_t v = 1; v <= 10; ++v) h.Record(v);
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 10u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 10u);
  EXPECT_EQ(s.Percentile(10), 1u);
  EXPECT_EQ(s.Percentile(50), 5u);
  EXPECT_EQ(s.Percentile(90), 9u);
  EXPECT_EQ(s.Percentile(100), 10u);
}

// Exact nearest-rank quantile of a sorted sample, for comparison.
uint64_t ExactQuantile(std::vector<uint64_t> sorted, double p) {
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  return sorted[rank - 1];
}

TEST(HistogramTest, PercentileAccuracyOnUniformDistribution) {
  // Deterministic LCG over [1, 1e6]; bucketed percentiles must stay within
  // the documented relative-error bound (bucket width / lower < 1/16, use
  // 7% for slack at small values).
  Histogram h;
  std::vector<uint64_t> values;
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 20000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t v = 1 + x % 1000000;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  HistogramSnapshot s = h.snapshot();
  for (double p : {50.0, 90.0, 99.0, 99.9}) {
    double exact = static_cast<double>(ExactQuantile(values, p));
    double approx = static_cast<double>(s.Percentile(p));
    EXPECT_LE(std::abs(approx - exact) / exact, 0.07)
        << "p" << p << " exact=" << exact << " approx=" << approx;
  }
  // The top percentile must never exceed the exact max.
  EXPECT_LE(s.Percentile(99.99), s.max);
  EXPECT_EQ(s.Percentile(100), values.back());
}

TEST(HistogramTest, PercentileAccuracyOnHeavyTail) {
  // Two-mode distribution: 99% fast ops around 1000, 1% thousand-fold slow
  // outliers — the shape tail percentiles exist to expose.
  Histogram h;
  std::vector<uint64_t> values;
  for (int i = 0; i < 9900; ++i) {
    uint64_t v = 950 + static_cast<uint64_t>(i % 100);
    values.push_back(v);
    h.Record(v);
  }
  for (int i = 0; i < 100; ++i) {
    uint64_t v = 1000000 + static_cast<uint64_t>(i) * 1000;
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  HistogramSnapshot s = h.snapshot();
  EXPECT_LT(s.Percentile(50), 1100u);
  // p99.5 must land in the outlier mode, not the bulk.
  EXPECT_GT(s.Percentile(99.5), 900000u);
  double exact = static_cast<double>(ExactQuantile(values, 99.9));
  double approx = static_cast<double>(s.Percentile(99.9));
  EXPECT_LE(std::abs(approx - exact) / exact, 0.07);
}

// ------------------------------------------------------------ merge/delta

TEST(HistogramTest, MergeIsSampleUnion) {
  Histogram a, b;
  for (uint64_t v = 1; v <= 100; ++v) a.Record(v);
  for (uint64_t v = 101; v <= 200; ++v) b.Record(v);
  HistogramSnapshot sa = a.snapshot();
  sa.Merge(b.snapshot());

  Histogram whole;
  for (uint64_t v = 1; v <= 200; ++v) whole.Record(v);
  HistogramSnapshot sw = whole.snapshot();

  EXPECT_EQ(sa.count, sw.count);
  EXPECT_EQ(sa.sum, sw.sum);
  EXPECT_EQ(sa.min, sw.min);
  EXPECT_EQ(sa.max, sw.max);
  EXPECT_EQ(sa.buckets, sw.buckets);
  for (double p : {50.0, 90.0, 99.0}) {
    EXPECT_EQ(sa.Percentile(p), sw.Percentile(p));
  }
}

TEST(HistogramTest, DeltaIsolatesNewSamples) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.Record(10);
  HistogramSnapshot before = h.snapshot();
  for (int i = 0; i < 30; ++i) h.Record(5000);
  HistogramSnapshot delta = h.snapshot().Delta(before);
  EXPECT_EQ(delta.count, 30u);
  EXPECT_EQ(delta.sum, 30u * 5000u);
  // All delta samples are 5000; the median must land in its bucket.
  uint64_t p50 = delta.Percentile(50);
  EXPECT_GE(p50, 4500u);
  EXPECT_LE(p50, 5500u);
}

TEST(HistogramTest, DeltaOfUnchangedHistogramIsEmpty) {
  Histogram h;
  h.Record(7);
  HistogramSnapshot s = h.snapshot();
  HistogramSnapshot delta = s.Delta(s);
  EXPECT_EQ(delta.count, 0u);
  EXPECT_EQ(delta.Percentile(99), 0u);
}

// ------------------------------------------------------------- concurrency

TEST(HistogramTest, ConcurrentRecordingLosesNothing) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  Histogram h;
  Counter c;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &c, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(1 + (i + static_cast<uint64_t>(t) * 7) % 1000);
        c.Inc();
      }
    });
  }
  for (auto& th : threads) th.join();
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(s.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  EXPECT_GE(s.min, 1u);
  EXPECT_LE(s.max, 1000u);
}

// --------------------------------------------------------------- registry

TEST(RegistryTest, SameNameAndLabelsDedupToOneInstance) {
  Registry r;
  Counter* a = r.GetCounter("requests_total", {{"engine", "plaintext"}});
  Counter* b = r.GetCounter("requests_total", {{"engine", "plaintext"}});
  Counter* other = r.GetCounter("requests_total", {{"engine", "encrypted"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
  a->Inc();
  EXPECT_EQ(b->value(), 1u);
}

TEST(RegistryTest, LabelOrderDoesNotMatter) {
  Registry r;
  Histogram* a =
      r.GetHistogram("phase_ns", {{"engine", "x"}, {"phase", "verify"}});
  Histogram* b =
      r.GetHistogram("phase_ns", {{"phase", "verify"}, {"engine", "x"}});
  EXPECT_EQ(a, b);
}

TEST(RegistryTest, KindsAreIndependentNamespaces) {
  Registry r;
  // The same name can exist as a counter and a gauge without collision.
  Counter* c = r.GetCounter("depth");
  Gauge* g = r.GetGauge("depth");
  c->Inc(3);
  g->Set(1.5);
  EXPECT_EQ(c->value(), 3u);
  EXPECT_DOUBLE_EQ(g->value(), 1.5);
}

TEST(RegistryTest, RenderTextContainsMetricLines) {
  Registry r;
  r.GetCounter("prever_test_total", {{"k", "v"}})->Inc(5);
  r.GetHistogram("prever_test_ns")->Record(100);
  std::string text = r.RenderText();
  EXPECT_NE(text.find("prever_test_total{k=\"v\"} 5"), std::string::npos);
  EXPECT_NE(text.find("prever_test_ns_count"), std::string::npos);
  EXPECT_NE(text.find("prever_test_ns_p99"), std::string::npos);
}

TEST(RegistryTest, JsonRoundTrip) {
  Registry r;
  r.GetCounter("hits_total", {{"shard", "0"}})->Inc(12);
  r.GetGauge("depth")->Set(3.5);
  Histogram* h = r.GetHistogram("lat_ns", {{"case", "fast"}});
  for (uint64_t v = 1; v <= 100; ++v) h->Record(v);

  auto parsed = Json::Parse(r.RenderJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  const Json* counters = parsed->Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_EQ(counters->size(), 1u);
  EXPECT_EQ(counters->at(0).Find("name")->AsString(), "hits_total");
  EXPECT_EQ(counters->at(0).Find("value")->AsUint64(), 12u);
  EXPECT_EQ(counters->at(0).Find("labels")->Find("shard")->AsString(), "0");

  const Json* gauges = parsed->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->at(0).Find("value")->AsDouble(), 3.5);

  const Json* hists = parsed->Find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_EQ(hists->size(), 1u);
  const Json& lat = hists->at(0);
  EXPECT_EQ(lat.Find("count")->AsUint64(), 100u);
  EXPECT_EQ(lat.Find("min")->AsUint64(), 1u);
  EXPECT_EQ(lat.Find("max")->AsUint64(), 100u);
  EXPECT_GT(lat.Find("p50")->AsUint64(), 0u);
  EXPECT_LE(lat.Find("p99")->AsUint64(), 100u);
}

TEST(RegistryTest, ConcurrentRegistrationIsSafe) {
  Registry r;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<Counter*> seen(kThreads, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r, &seen, t] {
      for (int i = 0; i < 200; ++i) {
        Counter* c = r.GetCounter("contended", {{"k", std::to_string(i % 5)}});
        c->Inc();
        if (i == 0) seen[t] = c;
      }
    });
  }
  for (auto& th : threads) th.join();
  // All threads resolved label k=0 to the same instance.
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  uint64_t total = 0;
  for (int i = 0; i < 5; ++i) {
    total += r.GetCounter("contended", {{"k", std::to_string(i)}})->value();
  }
  EXPECT_EQ(total, kThreads * 200u);
}

// ------------------------------------------------------------------ spans

TEST(TraceTest, ScopedSpanRecordsOnce) {
  Histogram h;
  {
    ScopedSpan span(&h);
    span.End();
    span.End();  // Second End is a no-op.
  }
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(TraceTest, NullHistogramDisablesSpan) {
  ScopedSpan span(nullptr);  // Must not crash.
  span.End();
}

TEST(TraceTest, MacroRecordsScopeDuration) {
  Histogram h;
  {
    PREVER_TRACE_SPAN(&h);
  }
  {
    PREVER_TRACE_SPAN(&h);
  }
  EXPECT_EQ(h.snapshot().count, 2u);
}

// ------------------------------------------------------------------- json

TEST(JsonTest, ParseRejectsGarbage) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
}

TEST(JsonTest, EscapesRoundTrip) {
  Json doc = Json::Object();
  doc.Set("s", Json::Str("line\nquote\"tab\tback\\x01\x01"));
  auto parsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("s")->AsString(), "line\nquote\"tab\tback\\x01\x01");
}

TEST(JsonTest, LargeIntegersSurviveRoundTrip) {
  Json doc = Json::Object();
  doc.Set("big", Json::Int(1234567890123456789ull));
  auto parsed = Json::Parse(doc.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("big")->AsUint64(), 1234567890123456789ull);
}

}  // namespace
}  // namespace prever::obs
