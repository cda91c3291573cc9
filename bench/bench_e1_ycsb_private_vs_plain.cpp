// E1 — YCSB-style private-vs-non-private update execution (DESIGN.md §3).
// Paper anchor (§6): "comparisons should be performed with respect to
// non-private solutions using standardized database benchmarks like TPC and
// YCSB."
//
// Each benchmark pushes the same YCSB update stream (zipfian keys, insert/
// upsert mix, per-owner amount regulation) through one PReVer engine.
// Expected shape: plaintext ≫ RC3 (one ZK attestation per update) ≫ RC2-MPC
// ≫ RC1-encrypted (homomorphic aggregation + owner attestation per update).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "core/prever.h"
#include "workload/ycsb.h"

namespace {

using namespace prever;

constexpr const char* kRegulation =
    "SUM(usertable.amount WHERE owner = update.owner WINDOW 1d) + "
    "update.amount <= 100000";

workload::YcsbConfig BenchConfig() {
  workload::YcsbConfig config;
  config.record_count = 512;
  config.insert_proportion = 0.5;
  config.max_amount = 100;
  config.seed = 42;
  return config;
}

void LoadDatabase(storage::Database& db, workload::YcsbWorkload& ycsb) {
  db.CreateTable(workload::YcsbWorkload::kTableName,
                 workload::YcsbWorkload::TableSchema());
  auto* table = *db.GetMutableTable(workload::YcsbWorkload::kTableName);
  for (const storage::Row& row : ycsb.InitialLoad()) (void)table->Insert(row);
}

void BM_Plaintext(benchmark::State& state) {
  workload::YcsbWorkload ycsb(BenchConfig());
  storage::Database db;
  LoadDatabase(db, ycsb);
  constraint::ConstraintCatalog catalog;
  (void)catalog.Add("cap", constraint::ConstraintScope::kRegulation,
                    constraint::ConstraintVisibility::kPublic, kRegulation);
  core::CentralizedOrdering ordering;
  core::PlaintextEngine engine(&db, &catalog, &ordering);
  uint64_t accepted = 0;
  for (auto _ : state) {
    if (engine.SubmitUpdate(ycsb.Next()).ok()) ++accepted;
  }
  state.counters["accepted"] = static_cast<double>(accepted);
  state.counters["ops/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  // Verifier counters: upserts invalidate the aggregate cache, so rebuilds
  // rather than deltas explain this engine's verify cost.
  auto stats = engine.verifier().stats();
  state.counters["agg_rebuilds"] = static_cast<double>(stats.agg.cache_builds);
  state.counters["agg_delta_applies"] =
      static_cast<double>(stats.agg.delta_applies);
  state.counters["agg_invalidations"] =
      static_cast<double>(stats.agg.invalidations);
  state.counters["agg_scan_evals"] = static_cast<double>(stats.agg.scan_evals);
  state.counters["fast_path_verifies"] =
      static_cast<double>(stats.fast_path_verifies);
}
BENCHMARK(BM_Plaintext)->Unit(benchmark::kMicrosecond);

void BM_EncryptedRc1(benchmark::State& state) {
  workload::YcsbWorkload ycsb(BenchConfig());
  core::DataOwner owner(256, crypto::PedersenParams::Test256(), 7);
  core::CentralizedOrdering ordering;
  std::vector<core::RegulatedBound> bounds = {
      {constraint::BoundDirection::kUpper, 100000, kDay, 18}};
  core::EncryptedEngine engine(&owner, &ordering, "owner", "amount", bounds,
                               /*value_bits=*/7, /*seed=*/3);
  uint64_t accepted = 0;
  for (auto _ : state) {
    if (engine.SubmitUpdate(ycsb.Next()).ok()) ++accepted;
  }
  state.counters["accepted"] = static_cast<double>(accepted);
  state.counters["ops/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EncryptedRc1)->Unit(benchmark::kMillisecond)->Iterations(30);

// Batch path: seal a whole batch producer-side, then let the manager verify
// the independent range proofs across --threads workers before the serial
// attestation pass. With --threads=1 this measures the batch API's serial
// cost; with more workers it shows the verification fan-out win.
void BM_EncryptedRc1Batch(benchmark::State& state) {
  workload::YcsbWorkload ycsb(BenchConfig());
  core::DataOwner owner(256, crypto::PedersenParams::Test256(), 7);
  core::CentralizedOrdering ordering;
  std::vector<core::RegulatedBound> bounds = {
      {constraint::BoundDirection::kUpper, 100000, kDay, 18}};
  core::EncryptedEngine engine(&owner, &ordering, "owner", "amount", bounds,
                               /*value_bits=*/7, /*seed=*/3);
  common::ThreadPool pool(prever::benchutil::Threads());
  engine.set_thread_pool(&pool);
  const size_t kBatch = 10;
  uint64_t accepted = 0;
  for (auto _ : state) {
    std::vector<core::Update> updates;
    updates.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) updates.push_back(ycsb.Next());
    auto sealed = engine.SealBatch(updates);
    if (sealed.ok() && engine.SubmitSealedBatch(*sealed).ok()) {
      accepted += kBatch;
    }
  }
  state.counters["accepted"] = static_cast<double>(accepted);
  state.counters["threads"] =
      static_cast<double>(prever::benchutil::Threads());
  state.counters["updates/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBatch),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EncryptedRc1Batch)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_PublicDataRc3(benchmark::State& state) {
  workload::YcsbWorkload ycsb(BenchConfig());
  storage::Database db;
  LoadDatabase(db, ycsb);
  constraint::ConstraintCatalog catalog;  // Public side: no constraints.
  std::vector<core::AttestationRequirement> reqs = {
      {"amount", constraint::BoundDirection::kUpper, 100, 7}};
  core::CentralizedOrdering ordering;
  core::PublicDataEngine engine(&db, &catalog, reqs, &ordering,
                                crypto::PedersenParams::Test256());
  crypto::Drbg drbg(uint64_t{5});
  uint64_t accepted = 0;
  for (auto _ : state) {
    core::Update u = ycsb.Next();
    u.mutation.op = storage::Mutation::Op::kUpsert;  // Avoid key clashes.
    core::PublicDataEngine::Submission s;
    int64_t amount = *u.fields.at("amount").AsInt64();
    s.update = std::move(u);
    s.update.fields.erase("amount");  // The private field stays hidden.
    auto att = engine.Attest(engine.requirements()[0], amount, drbg);
    if (att.ok()) {
      s.attestations.push_back(std::move(*att));
      if (engine.Submit(s).ok()) ++accepted;
    }
  }
  state.counters["accepted"] = static_cast<double>(accepted);
  state.counters["ops/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PublicDataRc3)->Unit(benchmark::kMillisecond)->Iterations(50);

void BM_FederatedMpcRc2(benchmark::State& state) {
  workload::YcsbWorkload ycsb(BenchConfig());
  const size_t kPlatforms = 3;
  std::vector<std::unique_ptr<core::FederatedPlatform>> platforms;
  std::vector<core::FederatedPlatform*> raw;
  for (size_t i = 0; i < kPlatforms; ++i) {
    auto p = std::make_unique<core::FederatedPlatform>();
    p->id = "p" + std::to_string(i);
    (void)p->db.CreateTable(workload::YcsbWorkload::kTableName,
                            workload::YcsbWorkload::TableSchema());
    raw.push_back(p.get());
    platforms.push_back(std::move(p));
  }
  constraint::ConstraintCatalog regulations;
  (void)regulations.Add("cap", constraint::ConstraintScope::kRegulation,
                        constraint::ConstraintVisibility::kPublic,
                        kRegulation);
  core::CentralizedOrdering ordering;
  core::FederatedMpcEngine engine(raw, &regulations, &ordering, 13);
  uint64_t accepted = 0;
  size_t rr = 0;
  for (auto _ : state) {
    if (engine.SubmitVia(rr++ % kPlatforms, ycsb.Next()).ok()) ++accepted;
  }
  state.counters["accepted"] = static_cast<double>(accepted);
  state.counters["mpc_msgs"] =
      static_cast<double>(engine.transcript().messages);
  state.counters["ops/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FederatedMpcRc2)->Unit(benchmark::kMicrosecond);

void BM_FederatedThresholdRc2(benchmark::State& state) {
  workload::YcsbWorkload ycsb(BenchConfig());
  const size_t kPlatforms = 3;
  std::vector<std::unique_ptr<core::FederatedPlatform>> platforms;
  std::vector<core::FederatedPlatform*> raw;
  for (size_t i = 0; i < kPlatforms; ++i) {
    auto p = std::make_unique<core::FederatedPlatform>();
    p->id = "p" + std::to_string(i);
    (void)p->db.CreateTable(workload::YcsbWorkload::kTableName,
                            workload::YcsbWorkload::TableSchema());
    raw.push_back(p.get());
    platforms.push_back(std::move(p));
  }
  constraint::ConstraintCatalog regulations;
  (void)regulations.Add("cap", constraint::ConstraintScope::kRegulation,
                        constraint::ConstraintVisibility::kPublic,
                        kRegulation);
  core::CentralizedOrdering ordering;
  core::FederatedThresholdEngine engine(
      raw, &regulations, &ordering, crypto::PedersenParams::Test256(), 19);
  uint64_t accepted = 0;
  size_t rr = 0;
  for (auto _ : state) {
    if (engine.SubmitVia(rr++ % kPlatforms, ycsb.Next()).ok()) ++accepted;
  }
  state.counters["accepted"] = static_cast<double>(accepted);
  state.counters["ops/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FederatedThresholdRc2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(20);

void BM_FederatedTokenRc2(benchmark::State& state) {
  workload::YcsbWorkload ycsb(BenchConfig());
  const size_t kPlatforms = 3;
  std::vector<std::unique_ptr<core::FederatedPlatform>> platforms;
  std::vector<core::FederatedPlatform*> raw;
  for (size_t i = 0; i < kPlatforms; ++i) {
    auto p = std::make_unique<core::FederatedPlatform>();
    p->id = "p" + std::to_string(i);
    (void)p->db.CreateTable(workload::YcsbWorkload::kTableName,
                            workload::YcsbWorkload::TableSchema());
    raw.push_back(p.get());
    platforms.push_back(std::move(p));
  }
  // One token = one amount unit; generous weekly budget.
  token::TokenAuthority authority(512, 1u << 20, kWeek, 11);
  core::CentralizedOrdering ordering;
  core::FederatedTokenEngine engine(raw, &authority, &ordering, "amount");
  uint64_t accepted = 0;
  size_t rr = 0;
  for (auto _ : state) {
    if (engine.SubmitVia(rr++ % kPlatforms, ycsb.Next()).ok()) ++accepted;
  }
  state.counters["accepted"] = static_cast<double>(accepted);
  state.counters["tokens"] = static_cast<double>(engine.tokens_spent());
  state.counters["ops/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FederatedTokenRc2)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(20);

}  // namespace

int main(int argc, char** argv) {
  prever::benchutil::ParseTraceFlag(&argc, argv);
  std::printf(
      "E1: YCSB update stream through each PReVer engine vs the plaintext "
      "baseline.\nExpected shape: plaintext >> federated-MPC >> RC3-ZK >> "
      "token (RSA per unit) ~ RC1-encrypted (Paillier+ZK per update).\n\n");
  prever::benchutil::ParseThreadsFlag(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Per-engine submit/phase histograms are recorded by the engines
  // themselves (src/core/engine_metrics.h); dump everything.
  prever::benchutil::EmitMetricsJson("e1");
  prever::benchutil::MaybeWriteTrace("e1");
  return 0;
}
