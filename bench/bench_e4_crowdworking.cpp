// E4 — end-to-end federated crowdworking (DESIGN.md §3). Paper anchor:
// §5's Separ instantiation and §2.3's FLSA scenario. Replays a synthetic
// multi-platform task trace through both RC2 engines, sweeping the number
// of platforms.
//
// Expected shape: token-engine per-task cost is dominated by RSA ops and
// scales with task hours (tokens burned), independent of platform count;
// the MPC engine's cost grows with platform count (more parties per
// comparison) but needs no trusted authority.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "core/prever.h"
#include "workload/crowdworking.h"

namespace {

using namespace prever;

std::vector<workload::TaskEvent> Trace(size_t platforms, size_t workers) {
  workload::CrowdworkingConfig config;
  config.num_platforms = platforms;
  config.num_workers = workers;
  config.num_weeks = 1;
  config.seed = 99;
  return workload::CrowdworkingWorkload(config).Generate();
}

std::vector<std::unique_ptr<core::FederatedPlatform>> MakePlatforms(size_t n) {
  std::vector<std::unique_ptr<core::FederatedPlatform>> platforms;
  for (size_t i = 0; i < n; ++i) {
    auto p = std::make_unique<core::FederatedPlatform>();
    p->id = "p" + std::to_string(i);
    (void)p->db.CreateTable(workload::CrowdworkingWorkload::kTableName,
                            workload::CrowdworkingWorkload::WorklogSchema());
    platforms.push_back(std::move(p));
  }
  return platforms;
}

void BM_MpcTrace(benchmark::State& state) {
  size_t num_platforms = static_cast<size_t>(state.range(0));
  auto trace = Trace(num_platforms, 10);
  for (auto _ : state) {
    state.PauseTiming();
    auto platforms = MakePlatforms(num_platforms);
    std::vector<core::FederatedPlatform*> raw;
    for (auto& p : platforms) raw.push_back(p.get());
    constraint::ConstraintCatalog regulations;
    (void)regulations.Add("flsa", constraint::ConstraintScope::kRegulation,
                          constraint::ConstraintVisibility::kPublic,
                          "SUM(worklog.hours WHERE worker = update.worker "
                          "WINDOW 7d) + update.hours <= 40");
    core::CentralizedOrdering ordering;
    core::FederatedMpcEngine engine(raw, &regulations, &ordering, 31);
    state.ResumeTiming();

    uint64_t idx = 0;
    for (const auto& e : trace) {
      (void)engine.SubmitVia(e.platform % num_platforms, e.ToUpdate(idx++));
    }
    state.counters["accepted"] = static_cast<double>(engine.stats().accepted);
    state.counters["capped"] =
        static_cast<double>(engine.stats().rejected_constraint);
  }
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(trace.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MpcTrace)->Arg(2)->Arg(3)->Arg(5)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_TokenTrace(benchmark::State& state) {
  size_t num_platforms = static_cast<size_t>(state.range(0));
  auto trace = Trace(num_platforms, 10);
  for (auto _ : state) {
    state.PauseTiming();
    auto platforms = MakePlatforms(num_platforms);
    std::vector<core::FederatedPlatform*> raw;
    for (auto& p : platforms) raw.push_back(p.get());
    token::TokenAuthority authority(512, 40, kWeek, 41);
    core::CentralizedOrdering ordering;
    core::FederatedTokenEngine engine(raw, &authority, &ordering, "hours");
    state.ResumeTiming();

    uint64_t idx = 0;
    for (const auto& e : trace) {
      (void)engine.SubmitVia(e.platform % num_platforms, e.ToUpdate(idx++));
    }
    state.counters["accepted"] = static_cast<double>(engine.stats().accepted);
    state.counters["capped"] =
        static_cast<double>(engine.stats().rejected_constraint);
    state.counters["tokens"] = static_cast<double>(engine.tokens_spent());
  }
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(trace.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TokenTrace)->Arg(2)->Arg(3)->Arg(5)
    ->Unit(benchmark::kMillisecond)->Iterations(2);

// The classical non-private baseline the paper cites (§4 RC2, ref [19]):
// the Demarcation Protocol admits most updates with ZERO communication by
// splitting the bound into local limits — but every transfer negotiation
// reveals consumption figures to peers.
void BM_DemarcationTrace(benchmark::State& state) {
  size_t num_platforms = static_cast<size_t>(state.range(0));
  auto trace = Trace(num_platforms, 10);
  for (auto _ : state) {
    state.PauseTiming();
    auto platforms = MakePlatforms(num_platforms);
    std::vector<core::FederatedPlatform*> raw;
    for (auto& p : platforms) raw.push_back(p.get());
    constraint::ConstraintCatalog regulations;
    (void)regulations.Add("flsa", constraint::ConstraintScope::kRegulation,
                          constraint::ConstraintVisibility::kPublic,
                          "SUM(worklog.hours WHERE worker = update.worker "
                          "WINDOW 7d) + update.hours <= 40");
    core::CentralizedOrdering ordering;
    core::DemarcationEngine engine(raw, &regulations, &ordering);
    state.ResumeTiming();

    uint64_t idx = 0;
    for (const auto& e : trace) {
      (void)engine.SubmitVia(e.platform % num_platforms, e.ToUpdate(idx++));
    }
    state.counters["accepted"] = static_cast<double>(engine.stats().accepted);
    state.counters["capped"] =
        static_cast<double>(engine.stats().rejected_constraint);
    state.counters["zero_comm_frac"] =
        engine.stats().submitted == 0
            ? 0
            : static_cast<double>(engine.local_admissions()) /
                  static_cast<double>(engine.stats().submitted);
    state.counters["transfers"] = static_cast<double>(engine.transfers());
  }
  state.counters["tasks/s"] = benchmark::Counter(
      static_cast<double>(trace.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_DemarcationTrace)->Arg(2)->Arg(3)->Arg(5)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

// Double-spend audit cost: rebuilding a platform's spent-set from the
// shared ledger as it grows (what a platform pays on (re)join).
void BM_SpentLedgerSync(benchmark::State& state) {
  int64_t spent = state.range(0);
  token::TokenAuthority authority(512, 1u << 20, kWeek, 43);
  ledger::LedgerDb ledger;
  token::TokenVerifier writer(authority.public_key());
  token::TokenWallet wallet(authority.public_key(), 47);
  (void)wallet.Withdraw(authority, "w", static_cast<size_t>(spent), 0);
  for (int64_t i = 0; i < spent; ++i) {
    auto t = wallet.Take();
    (void)writer.Spend(*t, ledger, 0);
  }
  for (auto _ : state) {
    token::TokenVerifier joiner(authority.public_key());
    Status s = joiner.SyncFromLedger(ledger);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_SpentLedgerSync)->Arg(100)->Arg(400)->Arg(1600)
    ->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace

int main(int argc, char** argv) {
  prever::benchutil::ParseTraceFlag(&argc, argv);
  std::printf(
      "E4: multi-platform crowdworking trace (FLSA 40h/week) through both "
      "RC2 engines, sweeping platform count.\nExpected shape: MPC cost "
      "grows with #platforms; token cost tracks hours (tokens) burned, not "
      "#platforms; both enforce the same cap.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  prever::benchutil::EmitMetricsJson("e4");
  prever::benchutil::MaybeWriteTrace("e4");
  return 0;
}
