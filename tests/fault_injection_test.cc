// Fault-injection suite: consensus under lossy networks, parser under
// garbage input, WAL under random corruption. PReVer's integrity story
// (RC4) only matters if the substrate misbehaves gracefully.

#include <gtest/gtest.h>

#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "constraint/parser.h"
#include "storage/wal.h"
#include "test_util.h"

namespace prever {
namespace {

Bytes Cmd(int i) { return ToBytes("cmd-" + std::to_string(i)); }

// ---------------------------------------------------- Raft with drops ----

TEST(LossyRaftTest, CommitsDespiteMessageLoss) {
  // 5% message loss: heartbeat retransmission must still drive all entries
  // to commit.
  net::SimNetConfig cfg;
  cfg.drop_rate = 0.05;
  cfg.seed = 31;
  net::SimNetwork net(cfg);
  consensus::RaftCluster cluster(consensus::RaftConfig{}, &net);
  CommitRecorder commits(cluster);
  // Elect.
  for (SimTime t = 50 * kMillisecond; t < 10 * kSecond;
       t += 50 * kMillisecond) {
    net.RunUntil(t);
    if (cluster.Leader().ok()) break;
  }
  ASSERT_TRUE(cluster.Leader().ok());
  int submitted = 0;
  for (int i = 0; i < 10; ++i) {
    auto leader = cluster.Leader();
    if (leader.ok() && (*leader)->Submit(Cmd(i)).ok()) ++submitted;
    net.RunUntil(net.Now() + 300 * kMillisecond);
  }
  net.RunUntil(net.Now() + 5 * kSecond);
  ASSERT_GT(submitted, 0);
  // Every replica's applied log is a prefix of the longest one, and the
  // longest covers everything that was submitted.
  size_t longest_idx = 0;
  for (size_t i = 1; i < cluster.size(); ++i) {
    if (commits.Log(i).size() > commits.Log(longest_idx).size()) {
      longest_idx = i;
    }
  }
  const auto& reference = commits.Log(longest_idx);
  EXPECT_EQ(reference.size(), static_cast<size_t>(submitted));
  for (size_t i = 0; i < cluster.size(); ++i) {
    const auto& log = commits.Log(i);
    for (size_t j = 0; j < log.size(); ++j) {
      EXPECT_EQ(log[j], reference[j]) << "replica " << i << " pos " << j;
    }
  }
}

// ---------------------------------------------------- PBFT safety ----

class LossyPbftProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LossyPbftProperty, SafetyHoldsUnderDropsAndPartitions) {
  // 3% loss plus a transient partition: PBFT may or may not make progress
  // (liveness needs synchrony), but NO two honest replicas may ever
  // disagree on a committed position.
  net::SimNetConfig cfg;
  cfg.drop_rate = 0.03;
  cfg.seed = GetParam();
  net::SimNetwork net(cfg);
  consensus::PbftCluster cluster(
      consensus::PbftConfig{4, 150 * kMillisecond}, &net);
  CommitRecorder commits(cluster);
  for (int i = 0; i < 8; ++i) cluster.Submit(Cmd(i));
  net.RunUntil(2 * kSecond);
  net.Partition(0, 2);
  net.RunUntil(4 * kSecond);
  net.HealAll();
  for (int i = 8; i < 12; ++i) cluster.Submit(Cmd(i));
  net.RunUntil(30 * kSecond);

  for (size_t a = 0; a < 4; ++a) {
    for (size_t b = a + 1; b < 4; ++b) {
      const auto& la = commits.Log(a);
      const auto& lb = commits.Log(b);
      size_t common = std::min(la.size(), lb.size());
      for (size_t i = 0; i < common; ++i) {
        EXPECT_EQ(la[i], lb[i]) << "divergence at " << i << " between "
                                << a << " and " << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossyPbftProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// ------------------------------------------------------ Parser fuzzing ---

TEST(ParserFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(2718);
  const std::string alphabet =
      "abcXYZ019 ()<>=!+-*/%.'\"_\t\nSUMCOUNTWHEREANDORNOTWINDOWupdate";
  for (int iter = 0; iter < 3000; ++iter) {
    size_t len = rng.NextBelow(60);
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      input.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    // Must return either OK or a clean error — never crash or hang.
    auto result = constraint::ParseConstraint(input);
    if (result.ok()) {
      // Whatever parsed must round-trip through its canonical form.
      auto again = constraint::ParseConstraint((*result)->ToString());
      EXPECT_TRUE(again.ok()) << input << " -> " << (*result)->ToString();
    }
  }
}

TEST(ParserFuzzTest, TokenMutationsOfValidConstraint) {
  const std::string base =
      "SUM(worklog.hours WHERE worker = update.worker WINDOW 7d) + "
      "update.hours <= 40";
  Rng rng(314);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string mutated = base;
    size_t edits = 1 + rng.NextBelow(4);
    for (size_t e = 0; e < edits; ++e) {
      size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextInRange(32, 126));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1, static_cast<char>(rng.NextInRange(32, 126)));
      }
      if (mutated.empty()) break;
    }
    auto result = constraint::ParseConstraint(mutated);
    (void)result;  // OK or error, never UB. (ASAN-clean by construction.)
  }
}

// ------------------------------------------------------- WAL corruption --

TEST(WalFuzzTest, RandomCorruptionNeverYieldsBogusRecords) {
  std::string path = ::testing::TempDir() + "prever_fuzz_wal.log";
  Rng rng(909);
  for (int round = 0; round < 30; ++round) {
    std::remove(path.c_str());
    std::vector<Bytes> written;
    {
      storage::WriteAheadLog wal;
      ASSERT_TRUE(wal.Open(path).ok());
      size_t records = 1 + rng.NextBelow(10);
      for (size_t i = 0; i < records; ++i) {
        Bytes payload = rng.NextBytes(1 + rng.NextBelow(100));
        ASSERT_TRUE(wal.Append(payload).ok());
        written.push_back(std::move(payload));
      }
    }
    // Corrupt one random byte.
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    long victim = static_cast<long>(rng.NextBelow(static_cast<uint64_t>(size)));
    std::fseek(f, victim, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, victim, SEEK_SET);
    std::fputc(c ^ 0xff, f);
    std::fclose(f);

    auto recovered = storage::WriteAheadLog::Recover(path);
    ASSERT_TRUE(recovered.ok());
    // Every recovered record must match the written prefix byte-for-byte —
    // corruption may truncate history but never fabricate or alter it.
    // (CRC32 collisions after a single bit flip are impossible.)
    ASSERT_LE(recovered->size(), written.size());
    for (size_t i = 0; i < recovered->size(); ++i) {
      EXPECT_EQ((*recovered)[i], written[i]) << "round " << round;
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace prever
