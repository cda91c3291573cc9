// E2 — consensus comparison (DESIGN.md §3). Paper anchor (§6): "the
// distributed solutions should be compared in terms of throughput and
// latency with standard distributed fault-tolerant protocols, e.g., Paxos
// [46] and PBFT [26]."
//
// Each benchmark commits a stream of update payloads through an ordering
// service and reports BOTH host-CPU cost and the simulated-network commit
// latency/throughput (the quantity the paper cares about). Expected shape:
// centralized ledger (no consensus) fastest; Raft (Paxos-family, 1
// round-trip to a majority) next; PBFT (3 phases, O(n^2) messages) slowest
// and degrading faster as replicas grow.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "core/prever.h"
#include "testing/crash_recovery.h"
#include "workload/ycsb.h"

namespace {

using namespace prever;

Bytes Payload(uint64_t i) {
  return ToBytes("update-" + std::to_string(i) + "-padding-to-64-bytes-" +
                 std::string(20, 'x'));
}

// The ordering layer records sim-time commit latency into a process-lifetime
// registry histogram; benches isolate their own samples by snapshot deltas.
obs::Histogram* CommitLatency(const char* proto) {
  return obs::Registry::Default().GetHistogram(
      "prever_consensus_commit_latency_us", {{"proto", proto}});
}

// Tail-aware latency reporting: per-commit percentiles in milliseconds
// (a single mean hides election stalls and view-change hiccups entirely).
void ReportLatencyPercentiles(benchmark::State& state,
                              const obs::HistogramSnapshot& delta) {
  if (delta.count == 0) return;
  state.counters["sim_latency_p50_ms"] =
      static_cast<double>(delta.Percentile(50)) / kMillisecond;
  state.counters["sim_latency_p90_ms"] =
      static_cast<double>(delta.Percentile(90)) / kMillisecond;
  state.counters["sim_latency_p99_ms"] =
      static_cast<double>(delta.Percentile(99)) / kMillisecond;
  state.counters["sim_latency_p999_ms"] =
      static_cast<double>(delta.Percentile(99.9)) / kMillisecond;
}

void BM_CentralizedLedger(benchmark::State& state) {
  core::CentralizedOrdering ordering;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ordering.Append(Payload(i), i));
    ++i;
  }
  state.counters["commits/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CentralizedLedger)->Unit(benchmark::kMicrosecond);

void BM_Raft(benchmark::State& state) {
  size_t replicas = static_cast<size_t>(state.range(0));
  core::RaftOrdering ordering(replicas, net::SimNetConfig{});
  obs::HistogramSnapshot before = CommitLatency("raft")->snapshot();
  SimTime start = ordering.network().Now();
  uint64_t i = 0;
  for (auto _ : state) {
    Status s = ordering.Append(Payload(i), i);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    ++i;
  }
  SimTime elapsed = ordering.network().Now() - start;
  if (i > 0 && elapsed > 0) {
    state.counters["sim_commits_per_s"] =
        static_cast<double>(i) * kSecond / static_cast<double>(elapsed);
  }
  ReportLatencyPercentiles(state, CommitLatency("raft")->snapshot().Delta(before));
  state.counters["net_msgs"] =
      static_cast<double>(ordering.network().messages_sent());
}
BENCHMARK(BM_Raft)->Arg(3)->Arg(5)->Arg(7)->Unit(benchmark::kMicrosecond)
    ->Iterations(200);

void BM_Pbft(benchmark::State& state) {
  size_t replicas = static_cast<size_t>(state.range(0));
  core::PbftOrdering ordering(replicas, net::SimNetConfig{});
  obs::HistogramSnapshot before = CommitLatency("pbft")->snapshot();
  SimTime start = ordering.network().Now();
  uint64_t i = 0;
  for (auto _ : state) {
    Status s = ordering.Append(Payload(i), i);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    ++i;
  }
  SimTime elapsed = ordering.network().Now() - start;
  if (i > 0 && elapsed > 0) {
    state.counters["sim_commits_per_s"] =
        static_cast<double>(i) * kSecond / static_cast<double>(elapsed);
  }
  ReportLatencyPercentiles(state, CommitLatency("pbft")->snapshot().Delta(before));
  state.counters["net_msgs"] =
      static_cast<double>(ordering.network().messages_sent());
}
BENCHMARK(BM_Pbft)->Arg(4)->Arg(7)->Arg(10)->Arg(16)
    ->Unit(benchmark::kMicrosecond)->Iterations(200);

// Per-append cost of a default PbftOrdering (stable checkpoints every
// consensus::kDefaultCheckpointInterval executions) once `range(0)` payloads
// are committed: 512 further blocking appends, spanning four checkpoints.
// A checkpoint certificate is fixed-size, so the time per append at 2^13
// stays within 2x of that at 2^10; scripts/bench_smoke.sh gates the ratio
// of the fastest of three repetitions, which a passing slowdown of the
// machine cannot inflate.
void BM_PbftAppendAtHistory(benchmark::State& state) {
  const uint64_t history = static_cast<uint64_t>(state.range(0));
  core::PbftOrdering ordering(4, net::SimNetConfig{});
  for (uint64_t i = 0; i < history; ++i) {
    if (Status s = ordering.Append(Payload(i), i); !s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
  }
  uint64_t i = history;
  for (auto _ : state) {
    Status s = ordering.Append(Payload(i), i);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    ++i;
  }
  state.counters["history"] = static_cast<double>(history);
  state.counters["stable_checkpoint_seq"] = static_cast<double>(
      ordering.cluster().replica(0).stable_checkpoint_seq());
  state.counters["log_slots"] =
      static_cast<double>(ordering.cluster().replica(0).log_slots());
}
BENCHMARK(BM_PbftAppendAtHistory)->Arg(1 << 10)->Arg(1 << 13)
    ->Unit(benchmark::kMicrosecond)->Iterations(512)->Repetitions(3);

// Ablation: batching — one PBFT instance carries `batch` updates
// (StreamChain/FastFabric-style amortization of Fabric's overhead, §4).
void BM_PbftBatched(benchmark::State& state) {
  size_t batch = static_cast<size_t>(state.range(0));
  core::OrderingPipelineConfig pipeline;
  pipeline.max_batch = batch;  // The last SubmitAsync seals the envelope.
  core::PbftOrdering ordering(4, net::SimNetConfig{}, "pbft", pipeline);
  SimTime start = ordering.network().Now();
  uint64_t total = 0;
  for (auto _ : state) {
    for (size_t j = 0; j < batch; ++j) {
      auto ticket = ordering.SubmitAsync(Payload(total + j), total + j);
      if (!ticket.ok()) {
        state.SkipWithError(ticket.status().ToString().c_str());
        return;
      }
    }
    Status s = ordering.Flush();
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    total += batch;
  }
  SimTime elapsed = ordering.network().Now() - start;
  if (total > 0 && elapsed > 0) {
    state.counters["sim_commits_per_s"] =
        static_cast<double>(total) * kSecond / static_cast<double>(elapsed);
  }
  state.counters["batch"] = static_cast<double>(batch);
}
BENCHMARK(BM_PbftBatched)->Arg(1)->Arg(8)->Arg(32)->Arg(128)
    ->Unit(benchmark::kMicrosecond)->Iterations(50);

// Pipelined ordering: SubmitAsync bursts through the adaptive batcher with
// up to `window` consensus instances in flight, one Flush per burst. Sweeps
// batch x window x replicas; compare sim_commits_per_s against the
// stop-and-wait BM_Raft/BM_Pbft rows above (same payloads, same network).
constexpr size_t kPipelineBurst = 512;

template <typename Ordering>
void RunPipelinedBurst(benchmark::State& state, Ordering& ordering,
                       const char* proto) {
  obs::HistogramSnapshot before = CommitLatency(proto)->snapshot();
  SimTime start = ordering.network().Now();
  uint64_t total = 0;
  for (auto _ : state) {
    for (size_t j = 0; j < kPipelineBurst; ++j) {
      auto ticket = ordering.SubmitAsync(Payload(total + j), total + j);
      if (!ticket.ok()) {
        state.SkipWithError(ticket.status().ToString().c_str());
        return;
      }
    }
    Status s = ordering.Flush();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      return;
    }
    total += kPipelineBurst;
  }
  SimTime elapsed = ordering.network().Now() - start;
  if (total > 0 && elapsed > 0) {
    state.counters["sim_commits_per_s"] =
        static_cast<double>(total) * kSecond / static_cast<double>(elapsed);
  }
  ReportLatencyPercentiles(state, CommitLatency(proto)->snapshot().Delta(before));
  state.counters["batch"] = static_cast<double>(state.range(0));
  state.counters["window"] = static_cast<double>(state.range(1));
  state.counters["replicas"] = static_cast<double>(state.range(2));
  state.counters["net_msgs"] =
      static_cast<double>(ordering.network().messages_sent());
}

void BM_RaftPipelined(benchmark::State& state) {
  core::OrderingPipelineConfig pipeline;
  pipeline.max_batch = static_cast<size_t>(state.range(0));
  pipeline.max_inflight = static_cast<size_t>(state.range(1));
  core::RaftOrdering ordering(static_cast<size_t>(state.range(2)),
                              net::SimNetConfig{}, pipeline);
  RunPipelinedBurst(state, ordering, "raft");
}
BENCHMARK(BM_RaftPipelined)
    // Batch sweep at window 4, 5 replicas.
    ->Args({1, 4, 5})->Args({16, 4, 5})->Args({64, 4, 5})->Args({256, 4, 5})
    // Window sweep at batch 64.
    ->Args({64, 1, 5})->Args({64, 2, 5})->Args({64, 8, 5})
    // Replica sweep at batch 64, window 4.
    ->Args({64, 4, 3})->Args({64, 4, 7})
    ->Unit(benchmark::kMillisecond)->Iterations(4);

void BM_PbftPipelined(benchmark::State& state) {
  core::OrderingPipelineConfig pipeline;
  pipeline.max_batch = static_cast<size_t>(state.range(0));
  pipeline.max_inflight = static_cast<size_t>(state.range(1));
  core::PbftOrdering ordering(static_cast<size_t>(state.range(2)),
                              net::SimNetConfig{}, "pbft", pipeline);
  RunPipelinedBurst(state, ordering, "pbft");
}
BENCHMARK(BM_PbftPipelined)
    ->Args({1, 4, 4})->Args({16, 4, 4})->Args({64, 4, 4})->Args({256, 4, 4})
    ->Args({64, 1, 4})->Args({64, 2, 4})->Args({64, 8, 4})
    ->Args({64, 4, 7})->Args({64, 4, 10})
    ->Unit(benchmark::kMillisecond)->Iterations(4);

// Ablation: sharding — k independent PBFT clusters progress in parallel
// (SharPer/Qanaat, §4 RC4); aggregate simulated throughput scales with k
// for single-shard updates.
void BM_ShardedPbft(benchmark::State& state) {
  size_t shards = static_cast<size_t>(state.range(0));
  core::ShardedPbftOrdering ordering(shards, 4, net::SimNetConfig{});
  obs::HistogramSnapshot before = CommitLatency("pbft-sharded")->snapshot();
  uint64_t i = 0;
  for (auto _ : state) {
    Status s = ordering.AppendRouted("key" + std::to_string(i), Payload(i), i);
    if (!s.ok()) state.SkipWithError(s.ToString().c_str());
    ++i;
  }
  SimTime elapsed = ordering.MaxShardTime();
  if (i > 0 && elapsed > 0) {
    state.counters["agg_sim_commits_per_s"] =
        static_cast<double>(i) * kSecond / static_cast<double>(elapsed);
  }
  ReportLatencyPercentiles(
      state, CommitLatency("pbft-sharded")->snapshot().Delta(before));
  state.counters["shards"] = static_cast<double>(shards);
}
BENCHMARK(BM_ShardedPbft)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMicrosecond)->Iterations(200);

// End-to-end crash recovery (src/testing/crash_recovery.h): each iteration
// commits a payload stream through replicated Raft with a data directory
// while seed-chosen replicas are killed at seed-chosen crash points —
// including mid-WAL-append and mid-checkpoint-write — and restarted through
// ReplicatedOrdering::RestartReplica (newest intact checkpoint +
// commit-journal suffix replay + RaftReplica::Recover). The case surfaces
// the recovery metrics recorded via src/obs/ as benchmark counters:
// recovery-time percentiles from the prever_recovery_time_us histogram,
// checkpoint saves, replayed journal entries, and snapshot state-transfer
// bytes. scripts/bench_smoke.sh asserts the counters are present and that
// recoveries actually happened.
void BM_CrashRecovery(benchmark::State& state) {
  simtest::CrashRecoveryOptions options;
  options.num_replicas = static_cast<size_t>(state.range(0));
  options.num_payloads = 48;
  options.checkpoint_interval = 6;
  options.data_dir =
      (std::filesystem::temp_directory_path() / "prever_bench_crash_recovery")
          .string();
  obs::Registry& reg = obs::Registry::Default();
  obs::Histogram* rec_time = reg.GetHistogram("prever_recovery_time_us");
  obs::Counter* saves = reg.GetCounter("prever_recovery_checkpoint_saves");
  obs::Counter* replayed = reg.GetCounter("prever_recovery_replayed_entries");
  obs::Counter* transfer =
      reg.GetCounter("prever_recovery_state_transfer_bytes");
  obs::HistogramSnapshot before = rec_time->snapshot();
  uint64_t saves0 = saves->value();
  uint64_t replayed0 = replayed->value();
  uint64_t transfer0 = transfer->value();
  uint64_t seed = 1;
  uint64_t recoveries = 0;
  uint64_t committed = 0;
  for (auto _ : state) {
    simtest::CrashRecoveryReport report =
        simtest::RunRaftCrashRecoveryScenario(seed++, options);
    if (!report.ok) {
      state.SkipWithError(report.Summary("raft").c_str());
      break;
    }
    recoveries += report.recoveries;
    committed += report.committed;
  }
  obs::HistogramSnapshot delta = rec_time->snapshot().Delta(before);
  state.counters["recoveries"] = static_cast<double>(recoveries);
  state.counters["committed"] = static_cast<double>(committed);
  state.counters["recovery_p50_us"] =
      static_cast<double>(delta.Percentile(50));
  state.counters["recovery_p99_us"] =
      static_cast<double>(delta.Percentile(99));
  state.counters["checkpoint_saves"] =
      static_cast<double>(saves->value() - saves0);
  state.counters["journal_entries_replayed"] =
      static_cast<double>(replayed->value() - replayed0);
  state.counters["state_transfer_bytes"] =
      static_cast<double>(transfer->value() - transfer0);
}
BENCHMARK(BM_CrashRecovery)->Arg(4)->Unit(benchmark::kMillisecond)
    ->Iterations(6);

// End-to-end causal-tracing case: a plaintext engine over pipelined Raft
// ordering, so a `--trace=FILE` run captures every transaction's full path
// — submit -> verify -> ledger phase -> queue-wait -> batch seal ->
// consensus -> replica ledger/WAL append — as one connected span tree per
// payload (plus net_send/net_deliver/raft_append_entries instants on the
// consensus hops). scripts/bench_smoke.sh runs this case under --trace and
// validates the exported JSON; tools/trace_analyze turns a 1k-payload run
// into per-stage critical-path attribution.
void BM_TracedPlaintextRaft(benchmark::State& state) {
  workload::YcsbConfig config;
  config.record_count = 256;
  config.insert_proportion = 0.5;
  config.max_amount = 100;
  config.seed = 42;
  workload::YcsbWorkload ycsb(config);
  storage::Database db;
  db.CreateTable(workload::YcsbWorkload::kTableName,
                 workload::YcsbWorkload::TableSchema());
  auto* table = *db.GetMutableTable(workload::YcsbWorkload::kTableName);
  for (const storage::Row& row : ycsb.InitialLoad()) (void)table->Insert(row);
  constraint::ConstraintCatalog catalog;
  (void)catalog.Add("cap", constraint::ConstraintScope::kRegulation,
                    constraint::ConstraintVisibility::kPublic,
                    "SUM(usertable.amount WHERE owner = update.owner "
                    "WINDOW 1d) + update.amount <= 100000");
  core::RaftOrdering ordering(3, net::SimNetConfig{});
  core::PlaintextEngine engine(&db, &catalog, &ordering);
  uint64_t accepted = 0;
  for (auto _ : state) {
    if (engine.SubmitUpdate(ycsb.Next()).ok()) ++accepted;
  }
  state.counters["accepted"] = static_cast<double>(accepted);
  state.counters["ops/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TracedPlaintextRaft)->Unit(benchmark::kMicrosecond)
    ->Iterations(1000);

// Zero-overhead guard for the causal tracer (contract in src/obs/trace.h):
// with the tracer runtime-disabled, a TraceSpan begin/end pair must cost a
// relaxed atomic load and a branch — single-digit nanoseconds. The
// ns_per_span counter makes the cost directly greppable;
// scripts/bench_smoke.sh asserts a loose ceiling on it and the unit test
// ObsTracing.DisabledSpanIsBranchCheap enforces the same contract relative
// to an empty loop.
void BM_TraceDisabledOverhead(benchmark::State& state) {
  obs::Tracer& tracer = obs::Tracer::Get();
  bool was_enabled = tracer.enabled();
  tracer.SetEnabled(false);
  auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    obs::TraceSpan span(obs::TraceStage::kSubmit);
    benchmark::DoNotOptimize(&span);
  }
  auto elapsed = std::chrono::steady_clock::now() - start;
  tracer.SetEnabled(was_enabled);
  if (state.iterations() > 0) {
    state.counters["ns_per_span"] =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()) /
        static_cast<double>(state.iterations());
  }
}
BENCHMARK(BM_TraceDisabledOverhead)->Iterations(1000000);

}  // namespace

int main(int argc, char** argv) {
  prever::benchutil::ParseTraceFlag(&argc, argv);
  std::printf(
      "E2: commit latency/throughput — centralized ledger vs Raft "
      "(Paxos-family CFT) vs PBFT (BFT), sweeping replica count.\n"
      "sim_latency_p{50,90,99,999}_ms / sim_commits_per_s are measured on "
      "the simulated network (1-5 ms one-way links).\nExpected shape: "
      "centralized < Raft < PBFT latency; PBFT message count grows O(n^2); "
      "tail percentiles expose election/view-change stalls the mean "
      "hides.\n\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  prever::benchutil::EmitMetricsJson("e2");
  prever::benchutil::MaybeWriteTrace("e2");
  return 0;
}
