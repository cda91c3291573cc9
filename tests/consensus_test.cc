#include <gtest/gtest.h>

#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "test_util.h"

namespace prever::consensus {
namespace {

Bytes Cmd(int i) { return ToBytes("cmd-" + std::to_string(i)); }

// ------------------------------------------------------------------- PBFT

TEST(PbftTest, CommitsSingleCommandOnAllReplicas) {
  net::SimNetwork net;
  PbftCluster cluster(PbftConfig{4, 200 * kMillisecond}, &net);
  CommitRecorder commits(cluster);
  cluster.Submit(Cmd(1));
  net.RunUntilIdle();
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(commits.Log(i).size(), 1u) << i;
    EXPECT_EQ(commits.Log(i)[0], Cmd(1));
  }
}

TEST(PbftTest, CommitsManyCommandsInSameOrderEverywhere) {
  net::SimNetwork net;
  PbftCluster cluster(PbftConfig{4, 500 * kMillisecond}, &net);
  CommitRecorder commits(cluster);
  for (int i = 0; i < 30; ++i) cluster.Submit(Cmd(i));
  net.RunUntilIdle();
  ASSERT_EQ(commits.Log(0).size(), 30u);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(commits.Log(i), commits.Log(0)) << i;
  }
}

TEST(PbftTest, ToleratesOneSilentBackup) {
  net::SimNetwork net;
  PbftCluster cluster(PbftConfig{4, 200 * kMillisecond}, &net);
  CommitRecorder commits(cluster);
  cluster.replica(2).SetFaultMode(PbftFaultMode::kSilent);
  for (int i = 0; i < 5; ++i) cluster.Submit(Cmd(i));
  net.RunUntilIdle();
  // 3 honest replicas (quorum 2f+1 = 3) all execute.
  EXPECT_EQ(commits.Log(0).size(), 5u);
  EXPECT_EQ(commits.Log(1).size(), 5u);
  EXPECT_EQ(commits.Log(3).size(), 5u);
  EXPECT_TRUE(commits.Log(2).empty());
}

TEST(PbftTest, SilentPrimaryTriggersViewChange) {
  net::SimNetwork net;
  PbftCluster cluster(PbftConfig{4, 100 * kMillisecond}, &net);
  CommitRecorder commits(cluster);
  cluster.replica(0).SetFaultMode(PbftFaultMode::kSilent);  // View-0 primary.
  cluster.Submit(Cmd(1));
  net.RunUntil(5 * kSecond);
  // Honest replicas must have moved to a later view and executed.
  EXPECT_GE(cluster.replica(1).view(), 1u);
  EXPECT_EQ(commits.Log(1).size(), 1u);
  EXPECT_EQ(commits.Log(2).size(), 1u);
  EXPECT_EQ(commits.Log(3).size(), 1u);
}

TEST(PbftTest, EquivocatingPrimaryCannotCauseDivergence) {
  net::SimNetwork net;
  PbftCluster cluster(PbftConfig{4, 100 * kMillisecond}, &net);
  CommitRecorder commits(cluster);
  cluster.replica(0).SetFaultMode(PbftFaultMode::kEquivocate);
  cluster.Submit(Cmd(1));
  net.RunUntil(10 * kSecond);
  // Safety: honest replicas never execute different commands at the same
  // position, whatever liveness path was taken.
  const auto& log1 = commits.Log(1);
  const auto& log2 = commits.Log(2);
  const auto& log3 = commits.Log(3);
  size_t common12 = std::min(log1.size(), log2.size());
  for (size_t i = 0; i < common12; ++i) EXPECT_EQ(log1[i], log2[i]);
  size_t common13 = std::min(log1.size(), log3.size());
  for (size_t i = 0; i < common13; ++i) EXPECT_EQ(log1[i], log3[i]);
}

TEST(PbftTest, SevenReplicasToleratesTwoFaults) {
  net::SimNetwork net;
  PbftCluster cluster(PbftConfig{7, 300 * kMillisecond}, &net);
  CommitRecorder commits(cluster);
  cluster.replica(3).SetFaultMode(PbftFaultMode::kSilent);
  cluster.replica(5).SetFaultMode(PbftFaultMode::kSilent);
  for (int i = 0; i < 10; ++i) cluster.Submit(Cmd(i));
  net.RunUntilIdle();
  size_t executed = 0;
  for (size_t i = 0; i < 7; ++i) {
    if (commits.Log(i).size() == 10) ++executed;
  }
  EXPECT_GE(executed, 5u);  // 2f+1 = 5 honest replicas execute everything.
}

TEST(PbftTest, DuplicateSubmissionsExecuteOnce) {
  net::SimNetwork net;
  PbftCluster cluster(PbftConfig{4, 200 * kMillisecond}, &net);
  CommitRecorder commits(cluster);
  cluster.Submit(Cmd(1));
  cluster.Submit(Cmd(1));
  net.RunUntilIdle();
  EXPECT_EQ(commits.Log(0).size(), 1u);
}

TEST(PbftTest, CascadingViewChangesSurviveTwoFaultyPrimaries) {
  // 7 replicas tolerate f = 2 faults. The primaries of views 0 AND 1 are
  // silent: the cluster must walk through two view changes and still
  // execute on every honest replica.
  net::SimNetwork net;
  PbftCluster cluster(PbftConfig{7, 100 * kMillisecond}, &net);
  CommitRecorder commits(cluster);
  cluster.replica(0).SetFaultMode(PbftFaultMode::kSilent);  // View 0 primary.
  cluster.replica(1).SetFaultMode(PbftFaultMode::kSilent);  // View 1 primary.
  cluster.Submit(Cmd(1));
  net.RunUntil(20 * kSecond);
  size_t executed = 0;
  for (size_t i = 2; i < 7; ++i) {
    if (commits.Log(i).size() == 1) ++executed;
  }
  EXPECT_GE(executed, 5u);  // All honest replicas.
  EXPECT_GE(cluster.replica(2).view(), 2u);
}

TEST(PbftTest, ViewChangePreservesPreparedRequests) {
  // A request prepares in view 0, then the primary goes silent before the
  // commit quorum forms everywhere. After the view change the request must
  // execute exactly once (no loss, no duplication).
  net::SimNetwork net;
  PbftCluster cluster(PbftConfig{4, 150 * kMillisecond}, &net);
  CommitRecorder commits(cluster);
  cluster.Submit(Cmd(1));
  // Let the pre-prepare/prepare exchange happen...
  net.RunUntil(4 * kMillisecond);
  // ...then silence the primary mid-protocol.
  cluster.replica(0).SetFaultMode(PbftFaultMode::kSilent);
  net.RunUntil(20 * kSecond);
  for (size_t i = 1; i < 4; ++i) {
    ASSERT_EQ(commits.Log(i).size(), 1u) << i;
    EXPECT_EQ(commits.Log(i)[0], Cmd(1));
  }
}

// ------------------------------------------------------------------- Raft

void RunUntilLeader(net::SimNetwork& net, RaftCluster& cluster,
                    SimTime deadline = 10 * kSecond) {
  SimTime step = 50 * kMillisecond;
  for (SimTime t = step; t <= deadline; t += step) {
    net.RunUntil(t);
    if (cluster.Leader().ok()) return;
  }
}

TEST(RaftTest, ElectsExactlyOneLeaderPerTerm) {
  net::SimNetwork net;
  RaftCluster cluster(RaftConfig{}, &net);
  RunUntilLeader(net, cluster);
  auto leader = cluster.Leader();
  ASSERT_TRUE(leader.ok());
  size_t leaders = 0;
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (cluster.replica(i).role() == RaftReplica::Role::kLeader &&
        cluster.replica(i).term() == (*leader)->term()) {
      ++leaders;
    }
  }
  EXPECT_EQ(leaders, 1u);
}

TEST(RaftTest, ReplicatesAndAppliesEverywhere) {
  net::SimNetwork net;
  RaftCluster cluster(RaftConfig{}, &net);
  CommitRecorder commits(cluster);
  RunUntilLeader(net, cluster);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster.Submit(Cmd(i)).ok());
  }
  net.RunUntil(net.Now() + 2 * kSecond);
  for (size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_EQ(commits.Log(i).size(), 20u) << i;
    EXPECT_EQ(commits.Log(i), commits.Log(0));
  }
}

TEST(RaftTest, SubmitFailsWithoutLeader) {
  net::SimNetwork net;
  RaftCluster cluster(RaftConfig{}, &net);
  // No events processed yet: no leader.
  EXPECT_EQ(cluster.Submit(Cmd(1)).code(), StatusCode::kUnavailable);
}

TEST(RaftTest, SurvivesLeaderCrash) {
  net::SimNetwork net;
  RaftCluster cluster(RaftConfig{5, 150 * kMillisecond, 300 * kMillisecond,
                                 50 * kMillisecond, 7},
                      &net);
  CommitRecorder commits(cluster);
  RunUntilLeader(net, cluster);
  auto first = cluster.Leader();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(cluster.Submit(Cmd(0)).ok());
  net.RunUntil(net.Now() + kSecond);

  net::NodeId crashed = (*first)->id();
  (*first)->Crash();
  net.Isolate(crashed);
  RunUntilLeader(net, cluster);
  auto second = cluster.Leader();
  ASSERT_TRUE(second.ok());
  EXPECT_NE((*second)->id(), crashed);
  ASSERT_TRUE(cluster.Submit(Cmd(1)).ok());
  net.RunUntil(net.Now() + 2 * kSecond);

  // The surviving majority applied both commands in order.
  for (size_t i = 0; i < cluster.size(); ++i) {
    if (static_cast<net::NodeId>(i) == crashed) continue;
    ASSERT_EQ(commits.Log(i).size(), 2u) << i;
    EXPECT_EQ(commits.Log(i)[0], Cmd(0));
    EXPECT_EQ(commits.Log(i)[1], Cmd(1));
  }
}

TEST(RaftTest, CrashedFollowerCatchesUpAfterRestart) {
  net::SimNetwork net;
  RaftCluster cluster(RaftConfig{}, &net);
  CommitRecorder commits(cluster);
  RunUntilLeader(net, cluster);
  auto leader = cluster.Leader();
  ASSERT_TRUE(leader.ok());
  net::NodeId follower = ((*leader)->id() + 1) % 3;
  cluster.replica(follower).Crash();
  net.Isolate(follower);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(cluster.Submit(Cmd(i)).ok());
  net.RunUntil(net.Now() + kSecond);
  EXPECT_TRUE(commits.Log(follower).empty());

  cluster.replica(follower).Restart();
  net.Reconnect(follower);
  net.RunUntil(net.Now() + 3 * kSecond);
  EXPECT_EQ(commits.Log(follower).size(), 5u);
}

TEST(RaftTest, MinorityPartitionCannotCommit) {
  net::SimNetwork net;
  RaftCluster cluster(RaftConfig{5, 150 * kMillisecond, 300 * kMillisecond,
                                 50 * kMillisecond, 11},
                      &net);
  RunUntilLeader(net, cluster);
  auto leader = cluster.Leader();
  ASSERT_TRUE(leader.ok());
  net::NodeId lid = (*leader)->id();
  // Cut the leader plus one follower off from the other three.
  net::NodeId buddy = (lid + 1) % 5;
  for (net::NodeId other = 0; other < 5; ++other) {
    if (other == lid || other == buddy) continue;
    net.Partition(lid, other);
    net.Partition(buddy, other);
  }
  uint64_t commit_before = (*leader)->commit_index();
  ASSERT_TRUE((*leader)->Submit(Cmd(99)).ok());
  net.RunUntil(net.Now() + 2 * kSecond);
  // The minority leader cannot advance its commit index.
  EXPECT_EQ((*leader)->commit_index(), commit_before);
}

// Property: PBFT and Raft both deliver identical logs on all correct
// replicas across random seeds (agreement + total order).
class ConsensusAgreementProperty : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ConsensusAgreementProperty, PbftLogsAgree) {
  net::SimNetConfig cfg;
  cfg.seed = GetParam();
  net::SimNetwork net(cfg);
  PbftCluster cluster(PbftConfig{4, 300 * kMillisecond}, &net);
  CommitRecorder commits(cluster);
  for (int i = 0; i < 12; ++i) cluster.Submit(Cmd(i));
  net.RunUntilIdle();
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(commits.Log(i), commits.Log(0));
  }
  EXPECT_EQ(commits.Log(0).size(), 12u);
}

TEST_P(ConsensusAgreementProperty, RaftLogsAgreeAsPrefixes) {
  net::SimNetConfig cfg;
  cfg.seed = GetParam();
  net::SimNetwork net(cfg);
  RaftConfig rcfg;
  rcfg.seed = GetParam() + 100;
  RaftCluster cluster(rcfg, &net);
  CommitRecorder commits(cluster);
  RunUntilLeader(net, cluster);
  for (int i = 0; i < 12; ++i) {
    if (!cluster.Submit(Cmd(i)).ok()) {
      RunUntilLeader(net, cluster);
      ASSERT_TRUE(cluster.Submit(Cmd(i)).ok());
    }
  }
  net.RunUntil(net.Now() + 3 * kSecond);
  // All applied logs are prefixes of the longest one.
  size_t longest = 0;
  for (size_t i = 1; i < cluster.size(); ++i) {
    if (commits.Log(i).size() > commits.Log(longest).size()) {
      longest = i;
    }
  }
  const auto& ref = commits.Log(longest);
  EXPECT_EQ(ref.size(), 12u);
  for (size_t i = 0; i < cluster.size(); ++i) {
    const auto& log = commits.Log(i);
    for (size_t j = 0; j < log.size(); ++j) EXPECT_EQ(log[j], ref[j]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsensusAgreementProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace prever::consensus
