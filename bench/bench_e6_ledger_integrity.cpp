// E6 — ledger integrity costs (DESIGN.md §3). Paper anchor (§4, RC4):
// "enable any participant to verify the integrity of stored data" via
// append-only authenticated data structures.
//
// Expected shape: appends amortize O(1) hash work; inclusion/consistency
// proof generation and verification grow logarithmically with ledger size;
// a full audit is linear; tamper detection always fires. Every one of these
// is SHA-256 underneath, so BM_Sha256 times the compressor itself.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "core/auditor.h"
#include "crypto/sha256_internal.h"
#include "ledger/ledger_db.h"

namespace {

using namespace prever;

ledger::LedgerDb BuildLedger(size_t n) {
  ledger::LedgerDb led;
  for (size_t i = 0; i < n; ++i) {
    led.Append(ToBytes("entry-" + std::to_string(i)), i);
  }
  return led;
}

// Appends onto a ledger preloaded to `range(0)` entries. The fixed
// iteration count makes each arg's final ledger size deterministic, so
// scripts/bench_smoke.sh can compare per-append time across sizes: appends
// are amortized O(1), so 2^16 must cost about what 2^10 does.
void BM_Append(benchmark::State& state) {
  auto led = BuildLedger(static_cast<size_t>(state.range(0)));
  uint64_t i = led.size();
  obs::Histogram* op = benchutil::OpHistogram("e6", "append");
  for (auto _ : state) {
    PREVER_TRACE_SPAN(op);
    benchmark::DoNotOptimize(led.Append(ToBytes("e" + std::to_string(i)), i));
    ++i;
  }
  state.counters["appends/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Append)->Arg(1 << 10)->Arg(1 << 16)->Iterations(4096)
    ->Unit(benchmark::kMicrosecond);

// Compression cost of hashing `range(0)` bytes (message plus pad: 2 blocks
// for 65 B, one HashNode; 17 blocks for 1 KiB) with the portable compressor
// (range(1) == 0) or the one Sha256 dispatches to on this CPU (1).
// scripts/bench_smoke.sh requires the dispatched 1 KiB time to be at most
// half the portable one on CPUs with the SHA extensions.
void BM_Sha256(benchmark::State& state) {
  namespace sha = crypto::sha256_internal;
  const size_t blocks = (static_cast<size_t>(state.range(0)) + 9 + 63) / 64;
  const sha::CompressFn compress =
      state.range(1) == 0 ? &sha::CompressPortable : sha::Dispatched();
  Bytes data(64 * blocks, 0xa5);
  uint32_t digest[8] = {};
  for (auto _ : state) {
    compress(digest, data.data(), blocks);
    benchmark::DoNotOptimize(digest);
    benchmark::ClobberMemory();
  }
  if (state.range(1) == 0) {
    state.SetLabel("portable");
  } else {
    state.SetLabel(compress == &sha::CompressPortable ? "dispatched=portable"
                                                      : "dispatched=sha-ni");
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->ArgsProduct({{65, 1024}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_Digest(benchmark::State& state) {
  auto led = BuildLedger(static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(led.Digest());
  state.counters["entries"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_Digest)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

void BM_InclusionProve(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto led = BuildLedger(n);
  size_t i = 0;
  obs::Histogram* op = benchutil::OpHistogram("e6", "inclusion_prove");
  for (auto _ : state) {
    PREVER_TRACE_SPAN(op);
    auto proof = led.ProveInclusion(i++ % n, n);
    benchmark::DoNotOptimize(proof);
  }
  state.counters["entries"] = static_cast<double>(n);
}
BENCHMARK(BM_InclusionProve)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

void BM_InclusionVerify(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto led = BuildLedger(n);
  auto digest = led.Digest();
  auto entry = led.GetEntry(n / 2).value();
  auto proof = led.ProveInclusion(n / 2, n).value();
  obs::Histogram* op = benchutil::OpHistogram("e6", "inclusion_verify");
  for (auto _ : state) {
    PREVER_TRACE_SPAN(op);
    bool ok = ledger::LedgerDb::VerifyInclusion(entry, proof, digest);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["proof_hashes"] = static_cast<double>(proof.path.size());
}
BENCHMARK(BM_InclusionVerify)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

void BM_ConsistencyProveVerify(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto led = BuildLedger(n);
  auto old_digest = led.DigestAt(n / 2).value();
  auto new_digest = led.Digest();
  for (auto _ : state) {
    auto proof = led.ProveConsistency(n / 2, n);
    bool ok = ledger::LedgerDb::VerifyConsistency(old_digest, new_digest,
                                                  *proof);
    benchmark::DoNotOptimize(ok);
  }
  state.counters["entries"] = static_cast<double>(n);
}
BENCHMARK(BM_ConsistencyProveVerify)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16)
    ->Unit(benchmark::kMicrosecond);

void BM_FullAudit(benchmark::State& state) {
  auto led = BuildLedger(static_cast<size_t>(state.range(0)));
  obs::Histogram* op = benchutil::OpHistogram("e6", "full_audit");
  for (auto _ : state) {
    PREVER_TRACE_SPAN(op);
    Status s = core::IntegrityAuditor::AuditLedger(led);
    benchmark::DoNotOptimize(s);
  }
  state.counters["entries"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_FullAudit)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);

void BM_TamperDetection(benchmark::State& state) {
  // Tamper with a random entry, audit, repair; detection must always fire.
  size_t n = 1 << 12;
  auto led = BuildLedger(n);
  uint64_t detected = 0, trials = 0;
  uint64_t i = 0;
  for (auto _ : state) {
    uint64_t victim = (i * 2654435761u) % n;
    Bytes original = led.GetEntry(victim)->payload;
    (void)led.TamperWithEntryForTest(victim, ToBytes("evil"));
    if (!core::IntegrityAuditor::AuditLedger(led).ok()) ++detected;
    (void)led.TamperWithEntryForTest(victim, original);
    ++trials;
    ++i;
  }
  state.counters["detection_rate"] =
      trials == 0 ? 0 : static_cast<double>(detected) / trials;
}
BENCHMARK(BM_TamperDetection)->Unit(benchmark::kMillisecond)->Iterations(20);

}  // namespace

int main(int argc, char** argv) {
  prever::benchutil::ParseTraceFlag(&argc, argv);
  std::printf(
      "E6: verifiable-ledger costs vs size.\nExpected shape: appends O(1) "
      "amortized; digests O(log n) from the incremental level cache; "
      "inclusion/consistency proof generation and verification O(log n); "
      "full audit O(n); detection_rate == 1.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  prever::benchutil::EmitMetricsJson("e6");
  prever::benchutil::MaybeWriteTrace("e6");
  return 0;
}
