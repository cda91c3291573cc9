#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/ordering.h"
#include "obs/registry.h"
#include "testing/crash_recovery.h"
#include "testing/sim_runner.h"

namespace prever::simtest {
namespace {

// Seeds per protocol. Every seed derives a distinct fault schedule
// (partitions, crashes, latency spikes, drop spikes, timer skew); the same
// seed always produces a byte-identical event trace, so any failure printed
// by these tests reproduces with:
//   PREVER_SIM_SEED=<seed> ./tests/sim_consensus_test
constexpr uint64_t kNumSeeds = 200;

/// Bytes of the ledger section ([u64 n][u32 len][entry]...) that a replica
/// state blob taken at consensus `position` holds: the entries `ledger`
/// committed at or below `position`.
size_t LedgerSectionBytes(const ledger::LedgerDb& ledger, uint64_t position) {
  size_t bytes = 8;
  for (uint64_t seq = 0; seq < ledger.size(); ++seq) {
    auto entry = ledger.GetEntry(seq);
    if ((entry->timestamp >> core::kBatchStampIndexBits) > position) break;
    bytes += 4 + entry->Encode().size();
  }
  return bytes;
}

/// PREVER_SIM_SEED narrows a sweep to one seed (replay/debug mode).
bool SingleSeed(uint64_t* seed) {
  const char* env = std::getenv("PREVER_SIM_SEED");
  if (env == nullptr || *env == '\0') return false;
  *seed = std::strtoull(env, nullptr, 10);
  return true;
}

ConsensusSimOptions RaftOptions() {
  ConsensusSimOptions o;
  o.num_nodes = 5;
  o.max_concurrent_crashed = 2;  // Leaves a 3/5 quorum.
  return o;
}

ConsensusSimOptions PbftOptions() {
  ConsensusSimOptions o;
  o.num_nodes = 4;               // f = 1.
  o.max_concurrent_crashed = 1;  // Silent + equivocator must stay <= f… each.
  o.allow_equivocation = true;
  o.num_commands = 10;
  return o;
}

TEST(SimConsensusTest, RaftSweep) {
  ConsensusSimOptions o = RaftOptions();
  uint64_t only = 0;
  if (SingleSeed(&only)) {
    SimReport r = RunRaftScenario(only, o);
    EXPECT_TRUE(r.ok) << r.Summary("Raft");
    std::fputs(r.trace.c_str(), stderr);
    return;
  }
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    SimReport r = RunRaftScenario(seed, o);
    ASSERT_TRUE(r.ok) << r.Summary("Raft");
  }
}

TEST(SimConsensusTest, PbftSweep) {
  ConsensusSimOptions o = PbftOptions();
  uint64_t only = 0;
  if (SingleSeed(&only)) {
    SimReport r = RunPbftScenario(only, o);
    EXPECT_TRUE(r.ok) << r.Summary("Pbft");
    std::fputs(r.trace.c_str(), stderr);
    return;
  }
  for (uint64_t seed = 1; seed <= kNumSeeds; ++seed) {
    SimReport r = RunPbftScenario(seed, o);
    ASSERT_TRUE(r.ok) << r.Summary("Pbft");
  }
}

// Same seed -> byte-identical event trace. This is what makes the replay
// line in failure reports trustworthy.
TEST(SimConsensusTest, RaftTraceIsDeterministic) {
  ConsensusSimOptions o = RaftOptions();
  for (uint64_t seed : {3u, 42u, 117u}) {
    SimReport a = RunRaftScenario(seed, o);
    SimReport b = RunRaftScenario(seed, o);
    ASSERT_TRUE(a.ok) << a.Summary("Raft");
    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.trace, b.trace) << "seed " << seed;
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.committed, b.committed);
  }
}

TEST(SimConsensusTest, PbftTraceIsDeterministic) {
  ConsensusSimOptions o = PbftOptions();
  for (uint64_t seed : {3u, 42u, 117u}) {
    SimReport a = RunPbftScenario(seed, o);
    SimReport b = RunPbftScenario(seed, o);
    ASSERT_TRUE(a.ok) << a.Summary("Pbft");
    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.trace, b.trace) << "seed " << seed;
  }
}

// ---------------------------------------------- Pipelined ordering sweeps
//
// These drive core::RaftOrdering / core::PbftOrdering (SubmitAsync + the
// adaptive batcher + the in-flight window) through randomized fault
// schedules. Seeds also vary the pipeline shape (batch {1,4,16,64} x
// window {1,2,4,8} x delay {1,3,10}ms), so the sweep covers stop-and-wait
// through deep pipelining. Replay one seed with PREVER_SIM_SEED.

constexpr uint64_t kNumOrderingSeeds = 60;

OrderingSimOptions RaftOrderingOptions() {
  OrderingSimOptions o;
  o.num_replicas = 5;
  o.max_concurrent_crashed = 2;  // Leaves a 3/5 quorum.
  o.base_drop_rate = 0.01;
  return o;
}

OrderingSimOptions PbftOrderingOptions() {
  OrderingSimOptions o;
  o.num_replicas = 4;  // f = 1.
  o.max_concurrent_crashed = 1;
  return o;
}

TEST(SimConsensusTest, RaftOrderingSweep) {
  OrderingSimOptions o = RaftOrderingOptions();
  uint64_t only = 0;
  if (SingleSeed(&only)) {
    SimReport r = RunRaftOrderingScenario(only, o);
    EXPECT_TRUE(r.ok) << r.Summary("RaftOrdering");
    std::fputs(r.trace.c_str(), stderr);
    return;
  }
  for (uint64_t seed = 1; seed <= kNumOrderingSeeds; ++seed) {
    SimReport r = RunRaftOrderingScenario(seed, o);
    ASSERT_TRUE(r.ok) << r.Summary("RaftOrdering");
  }
}

TEST(SimConsensusTest, PbftOrderingSweep) {
  OrderingSimOptions o = PbftOrderingOptions();
  uint64_t only = 0;
  if (SingleSeed(&only)) {
    SimReport r = RunPbftOrderingScenario(only, o);
    EXPECT_TRUE(r.ok) << r.Summary("PbftOrdering");
    std::fputs(r.trace.c_str(), stderr);
    return;
  }
  for (uint64_t seed = 1; seed <= kNumOrderingSeeds; ++seed) {
    SimReport r = RunPbftOrderingScenario(seed, o);
    ASSERT_TRUE(r.ok) << r.Summary("PbftOrdering");
  }
}

TEST(SimConsensusTest, OrderingTraceIsDeterministic) {
  OrderingSimOptions o = RaftOrderingOptions();
  for (uint64_t seed : {5u, 23u}) {
    SimReport a = RunRaftOrderingScenario(seed, o);
    SimReport b = RunRaftOrderingScenario(seed, o);
    ASSERT_TRUE(a.ok) << a.Summary("RaftOrdering");
    EXPECT_FALSE(a.trace.empty());
    EXPECT_EQ(a.trace, b.trace) << "seed " << seed;
    EXPECT_EQ(a.committed, b.committed);
  }
}

// ---------------------------------------------- Crash-recovery sweeps
//
// End-to-end durability: replicas are killed at seed-chosen crash points —
// including mid-checkpoint-write and mid-WAL-append (the harness mutilates
// the on-disk files exactly as an interrupted write would) — then restarted
// through the real recovery path: CheckpointStore::LoadLatest (quarantining
// corrupt finals) + commit-journal suffix replay + consensus-level catch-up
// (Raft snapshot/log re-delivery, PBFT stable-checkpoint install + state
// transfer). Each scenario asserts digest-identical replica prefixes,
// exactly-once commits post-Flush, and checkpoint-root == recomputed Merkle
// root. Replay one seed with PREVER_SIM_SEED.

constexpr uint64_t kNumCrashRecoverySeeds = 60;

CrashRecoveryOptions CrashRecoveryOptionsFor(const char* proto,
                                             uint64_t seed) {
  CrashRecoveryOptions o;
  o.data_dir = ::testing::TempDir() + "prever_crashrec_" + proto + "_" +
               std::to_string(seed);
  return o;
}

TEST(SimConsensusTest, RaftCrashRecoverySweep) {
  uint64_t only = 0;
  if (SingleSeed(&only)) {
    CrashRecoveryReport r = RunRaftCrashRecoveryScenario(
        only, CrashRecoveryOptionsFor("raft", only));
    EXPECT_TRUE(r.ok) << r.Summary("Raft");
    std::fputs(r.trace.c_str(), stderr);
    return;
  }
  size_t total_crashes = 0;
  size_t total_quarantined = 0;
  for (uint64_t seed = 1; seed <= kNumCrashRecoverySeeds; ++seed) {
    CrashRecoveryOptions o = CrashRecoveryOptionsFor("raft", seed);
    o.num_replicas = 5;
    CrashRecoveryReport r = RunRaftCrashRecoveryScenario(seed, o);
    ASSERT_TRUE(r.ok) << r.Summary("Raft");
    EXPECT_EQ(r.crashes, r.recoveries) << r.Summary("Raft");
    total_crashes += r.crashes;
    total_quarantined += r.checkpoints_quarantined;
  }
  // The sweep must actually exercise kills and the corrupt-checkpoint
  // fallback — a quiet sweep would be an expensive no-op.
  EXPECT_GT(total_crashes, kNumCrashRecoverySeeds / 2);
  EXPECT_GT(total_quarantined, 0u);
}

TEST(SimConsensusTest, PbftCrashRecoverySweep) {
  uint64_t only = 0;
  if (SingleSeed(&only)) {
    CrashRecoveryReport r = RunPbftCrashRecoveryScenario(
        only, CrashRecoveryOptionsFor("pbft", only));
    EXPECT_TRUE(r.ok) << r.Summary("Pbft");
    std::fputs(r.trace.c_str(), stderr);
    return;
  }
  size_t total_crashes = 0;
  for (uint64_t seed = 1; seed <= kNumCrashRecoverySeeds; ++seed) {
    CrashRecoveryOptions o = CrashRecoveryOptionsFor("pbft", seed);
    o.num_replicas = 4;  // f = 1.
    CrashRecoveryReport r = RunPbftCrashRecoveryScenario(seed, o);
    ASSERT_TRUE(r.ok) << r.Summary("Pbft");
    EXPECT_EQ(r.crashes, r.recoveries) << r.Summary("Pbft");
    total_crashes += r.crashes;
  }
  EXPECT_GT(total_crashes, kNumCrashRecoverySeeds / 2);
}

// Log compaction keeps memory bounded by the checkpoint interval, not the
// history length: under a long run, the PBFT message log and the physical
// Raft log must stay within a constant factor of the interval.
TEST(SimConsensusTest, RaftLogBoundedByCheckpointInterval) {
  net::SimNetConfig net_config;
  net_config.seed = 7;
  core::OrderingPipelineConfig pipeline;
  pipeline.max_batch = 512;  // One envelope per Flush below.
  pipeline.max_inflight = 8;
  constexpr uint64_t kPayloads = 100000;  // ~196 log positions.
  constexpr uint64_t kInterval = 16;  // Positions between compactions.
  // Raft compacts at every durable checkpoint, so the ordering needs a
  // data directory.
  const std::string dir = ::testing::TempDir() + "prever_raft_log_bound";
  std::filesystem::remove_all(dir);
  core::RaftOrdering ordering(3, net_config, pipeline, kInterval, dir);
  size_t max_physical = 0;
  // Replica 0's snapshots: how many, and the non-ledger bytes (floor and
  // batch window) of the first and the latest.
  uint64_t snapshot_index = 0;
  size_t compactions = 0;
  size_t first_state_bytes = 0;
  size_t last_state_bytes = 0;
  for (uint64_t k = 0; k < kPayloads; ++k) {
    Bytes payload{static_cast<uint8_t>(k), static_cast<uint8_t>(k >> 8),
                  static_cast<uint8_t>(k >> 16)};
    ASSERT_TRUE(ordering.SubmitAsync(payload, 0).ok());
    if ((k + 1) % pipeline.max_batch == 0 || k + 1 == kPayloads) {
      ASSERT_TRUE(ordering.Flush().ok());
      for (size_t i = 0; i < 3; ++i) {
        max_physical = std::max(
            max_physical, ordering.cluster().replica(i).physical_log_entries());
      }
      const consensus::RaftReplica& r0 = ordering.cluster().replica(0);
      if (r0.snapshot_index() != snapshot_index) {
        snapshot_index = r0.snapshot_index();
        ++compactions;
        last_state_bytes =
            r0.snapshot_blob().size() -
            LedgerSectionBytes(ordering.ReplicaLedger(0), snapshot_index);
        if (first_state_bytes == 0) first_state_bytes = last_state_bytes;
      }
    }
  }
  EXPECT_EQ(ordering.ReplicaLedger(0).size(), kPayloads);
  EXPECT_GE(compactions, 5u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(ordering.cluster().replica(i).snapshot_index(), 0u) << i;
  }
  // Between compactions at most kInterval applied entries accumulate, plus
  // the in-flight window of uncompacted batches.
  EXPECT_LE(max_physical, kInterval + 2 * pipeline.max_inflight + 16)
      << "Raft physical log grew unboundedly";
  // The snapshot's dedup state is one fixed-size batch window, whatever
  // the number of batches applied.
  EXPECT_EQ(last_state_bytes, first_state_bytes)
      << "Raft snapshot state beyond the ledger grew with history";
  std::filesystem::remove_all(dir);
}

TEST(SimConsensusTest, PbftMessageLogBoundedByCheckpointInterval) {
  net::SimNetConfig net_config;
  net_config.seed = 11;
  core::OrderingPipelineConfig pipeline;
  pipeline.max_batch = 512;  // One envelope per Flush below.
  pipeline.max_inflight = 8;
  constexpr uint64_t kInterval = 16;  // Executions between checkpoints.
  core::PbftOrdering ordering(4, net_config, "pbft-bounded", pipeline,
                              kInterval);
  constexpr uint64_t kPayloads = 100000;
  size_t max_slots = 0;
  for (uint64_t k = 0; k < kPayloads; ++k) {
    Bytes payload{static_cast<uint8_t>(k), static_cast<uint8_t>(k >> 8),
                  static_cast<uint8_t>(k >> 16)};
    ASSERT_TRUE(ordering.SubmitAsync(payload, 0).ok());
    if ((k + 1) % pipeline.max_batch == 0 || k + 1 == kPayloads) {
      ASSERT_TRUE(ordering.Flush().ok());
      for (size_t i = 0; i < 4; ++i) {
        max_slots =
            std::max(max_slots, ordering.cluster().replica(i).log_slots());
      }
    }
  }
  EXPECT_EQ(ordering.ReplicaLedger(0).size(), kPayloads);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_GT(ordering.cluster().replica(i).stable_checkpoint_seq(), 0u);
  }
  // 2f+1 checkpoint certificates advance the low watermark and GC the log
  // below it: occupancy is bounded by interval + the watermark window, never
  // by the 100k history.
  EXPECT_LE(max_slots, kInterval + 2 * pipeline.max_inflight + 16)
      << "PBFT message log grew unboundedly";
}

// The production configuration: a default PbftOrdering (checkpoints every
// kDefaultCheckpointInterval executions) driven by blocking appends over 11
// intervals without faults. Checkpoints must stabilize everywhere, bound the
// message log, never trigger a state fetch (no replica lags a full
// interval), and vote on a certificate, and keep a stable state beyond the
// ledger, whose size does not grow with history.
TEST(SimConsensusTest, PbftDefaultCheckpointsFaultFree) {
  constexpr uint64_t kInterval = consensus::kDefaultCheckpointInterval;
  constexpr uint64_t kAppends = 11 * kInterval;
  obs::Counter* fetches = obs::Registry::Default().GetCounter(
      "prever_consensus_msgs_total",
      {{"proto", "pbft"}, {"type", "fetch_state"}, {"dir", "sent"}});
  obs::Counter* checkpoints = obs::Registry::Default().GetCounter(
      "prever_consensus_msgs_total",
      {{"proto", "pbft"}, {"type", "checkpoint"}, {"dir", "sent"}});
  const uint64_t fetches0 = fetches->value();
  const uint64_t checkpoints0 = checkpoints->value();
  core::PbftOrdering ordering(4, net::SimNetConfig{});
  const core::OrderingPipelineConfig pipeline;
  // The checkpoint message payload is the certificate itself.
  size_t first_cert_bytes = 0;
  size_t max_slots = 0;
  // Per replica: EncodeStableState() minus its ledger section, at the first
  // and at the latest stable checkpoint.
  std::vector<uint64_t> stable_seq(4, 0);
  std::vector<size_t> first_state_bytes(4, 0);
  std::vector<size_t> last_state_bytes(4, 0);
  for (uint64_t k = 0; k < kAppends; ++k) {
    ASSERT_TRUE(ordering.Append(ToBytes("pay-" + std::to_string(k)), k).ok());
    for (size_t i = 0; i < 4; ++i) {
      const consensus::PbftReplica& r = ordering.cluster().replica(i);
      max_slots = std::max(max_slots, r.log_slots());
      if (first_cert_bytes == 0 && r.stable_checkpoint_seq() > 0) {
        first_cert_bytes = r.stable_checkpoint_cert().size();
      }
      if (r.stable_checkpoint_seq() != stable_seq[i]) {
        stable_seq[i] = r.stable_checkpoint_seq();
        last_state_bytes[i] =
            r.EncodeStableState().size() -
            LedgerSectionBytes(ordering.ReplicaLedger(i), stable_seq[i]);
        if (first_state_bytes[i] == 0) {
          first_state_bytes[i] = last_state_bytes[i];
        }
      }
    }
  }
  EXPECT_EQ(fetches->value(), fetches0) << "fault-free run fetched state";
  EXPECT_GE(checkpoints->value() - checkpoints0, 4 * 3 * 10u);
  ASSERT_GT(first_cert_bytes, 0u);
  for (size_t i = 0; i < 4; ++i) {
    const consensus::PbftReplica& r = ordering.cluster().replica(i);
    EXPECT_GE(r.stable_checkpoint_seq(), 10 * kInterval) << "replica " << i;
    EXPECT_EQ(r.stable_checkpoint_cert().size(), first_cert_bytes)
        << "checkpoint certificate grew with history on replica " << i;
    EXPECT_EQ(last_state_bytes[i], first_state_bytes[i])
        << "stable state beyond the ledger grew with history on replica " << i;
  }
  EXPECT_LE(max_slots, kInterval + 2 * pipeline.max_inflight + 16)
      << "PBFT message log grew past the checkpoint interval";
}

TEST(SimConsensusTest, CrashRecoveryTraceIsDeterministic) {
  for (uint64_t seed : {9u, 31u}) {
    CrashRecoveryOptions o = CrashRecoveryOptionsFor("raftdet", seed);
    CrashRecoveryReport a = RunRaftCrashRecoveryScenario(seed, o);
    CrashRecoveryReport b = RunRaftCrashRecoveryScenario(seed, o);
    ASSERT_TRUE(a.ok) << a.Summary("Raft");
    EXPECT_EQ(a.trace, b.trace) << "seed " << seed;
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.checkpoints_saved, b.checkpoints_saved);
  }
}

// Distinct seeds must explore distinct schedules — a generator collapsing to
// one schedule would make the sweep an expensive no-op.
TEST(SimConsensusTest, SeedsExploreDistinctSchedules) {
  ScenarioGenerator gen(ScenarioOptions{});
  std::set<std::string> shapes;
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    FaultSchedule s = gen.Generate(seed);
    std::string shape;
    for (const FaultAction& a : s.actions) shape += a.ToString() + "\n";
    shapes.insert(shape);
  }
  EXPECT_GT(shapes.size(), 40u);
}

}  // namespace
}  // namespace prever::simtest
