// Tests for the extension features: producer-signed updates, batched and
// sharded PBFT ordering, string-escape round trips.

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>
#include <type_traits>

#include "common/serial.h"
#include "constraint/eval.h"
#include "constraint/parser.h"
#include "core/prever.h"
#include "recovery/journal.h"

namespace prever::core {
namespace {

using storage::Mutation;
using storage::Schema;
using storage::Value;
using storage::ValueType;

// ------------------------------------------------------- Signed updates --

class SignedUpdateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    crypto::Drbg drbg(uint64_t{55});
    alice_key_ = new crypto::RsaKeyPair(
        crypto::RsaGenerateKey(512, drbg).value());
    mallory_key_ = new crypto::RsaKeyPair(
        crypto::RsaGenerateKey(512, drbg).value());
  }
  void SetUp() override {
    Schema schema({{"id", ValueType::kString},
                   {"worker", ValueType::kString},
                   {"hours", ValueType::kInt64},
                   {"at", ValueType::kTimestamp}});
    ASSERT_TRUE(db_.CreateTable("worklog", schema).ok());
    ASSERT_TRUE(directory_.Register("alice", alice_key_->pub).ok());
    engine_ = std::make_unique<PlaintextEngine>(&db_, &catalog_, &ordering_);
    auth_ = std::make_unique<AuthenticatingEngine>(engine_.get(), &directory_);
  }

  Update MakeUpdate(const std::string& producer, const std::string& id) {
    Update u;
    u.id = id;
    u.producer = producer;
    u.timestamp = kDay;
    u.fields = {{"hours", Value::Int64(5)}};
    u.mutation.op = Mutation::Op::kInsert;
    u.mutation.table = "worklog";
    u.mutation.row = {Value::String(id), Value::String(producer),
                      Value::Int64(5), Value::Timestamp(kDay)};
    return u;
  }

  static crypto::RsaKeyPair* alice_key_;
  static crypto::RsaKeyPair* mallory_key_;
  storage::Database db_;
  constraint::ConstraintCatalog catalog_;
  CentralizedOrdering ordering_;
  ProducerKeyDirectory directory_;
  std::unique_ptr<PlaintextEngine> engine_;
  std::unique_ptr<AuthenticatingEngine> auth_;
};
crypto::RsaKeyPair* SignedUpdateTest::alice_key_ = nullptr;
crypto::RsaKeyPair* SignedUpdateTest::mallory_key_ = nullptr;

TEST_F(SignedUpdateTest, ValidSignatureAccepted) {
  SignedUpdate s = *SignUpdate(MakeUpdate("alice", "t1"), *alice_key_);
  EXPECT_TRUE(auth_->SubmitSigned(s).ok());
  EXPECT_EQ((*db_.GetTable("worklog"))->size(), 1u);
}

TEST_F(SignedUpdateTest, ImpersonationRejected) {
  // Mallory signs an update claiming to be alice: alice's registered key
  // does not verify it.
  SignedUpdate s = *SignUpdate(MakeUpdate("alice", "t1"), *mallory_key_);
  EXPECT_EQ(auth_->SubmitSigned(s).code(), StatusCode::kIntegrityViolation);
  EXPECT_EQ(auth_->rejected_signatures(), 1u);
  EXPECT_EQ((*db_.GetTable("worklog"))->size(), 0u);
}

TEST_F(SignedUpdateTest, UnknownProducerRejected) {
  SignedUpdate s = *SignUpdate(MakeUpdate("mallory", "t1"), *mallory_key_);
  EXPECT_EQ(auth_->SubmitSigned(s).code(), StatusCode::kPermissionDenied);
}

TEST_F(SignedUpdateTest, TamperedUpdateBodyRejected) {
  SignedUpdate s = *SignUpdate(MakeUpdate("alice", "t1"), *alice_key_);
  s.update.fields["hours"] = Value::Int64(500);  // Inflate after signing.
  EXPECT_EQ(auth_->SubmitSigned(s).code(), StatusCode::kIntegrityViolation);
}

TEST_F(SignedUpdateTest, UnsignedPathRefused) {
  EXPECT_EQ(auth_->SubmitUpdate(MakeUpdate("alice", "t1")).code(),
            StatusCode::kPermissionDenied);
}

TEST_F(SignedUpdateTest, DirectoryRejectsDuplicateRegistration) {
  EXPECT_EQ(directory_.Register("alice", alice_key_->pub).code(),
            StatusCode::kAlreadyExists);
}

// ------------------------------------------- Batched / sharded ordering --

// Orders `payloads` as ONE envelope: with max_batch == payloads.size(), the
// last SubmitAsync seals the batch (a shorter tail is sealed by Flush).
Status OrderBatch(OrderingService& ordering,
                  const std::vector<Bytes>& payloads) {
  for (const Bytes& p : payloads) {
    PREVER_RETURN_IF_ERROR(ordering.SubmitAsync(p, 0).status());
  }
  return ordering.Flush();
}

OrderingPipelineConfig BatchOf(size_t n) {
  OrderingPipelineConfig pipeline;
  pipeline.max_batch = n;
  return pipeline;
}

TEST(BatchedOrderingTest, BatchYieldsOneEntryPerPayload) {
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft", BatchOf(3));
  std::vector<Bytes> batch = {ToBytes("u1"), ToBytes("u2"), ToBytes("u3")};
  ASSERT_TRUE(OrderBatch(ordering, batch).ok());
  EXPECT_EQ(ordering.CommittedCount(), 3u);
  EXPECT_EQ(ToString(ordering.Ledger().GetEntry(0)->payload), "u1");
  EXPECT_EQ(ToString(ordering.Ledger().GetEntry(2)->payload), "u3");
}

TEST(BatchedOrderingTest, IdenticalBatchesBothCommit) {
  // The batch counter makes equal payload sets distinct consensus commands
  // (PBFT dedups by digest).
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft", BatchOf(1));
  ASSERT_TRUE(OrderBatch(ordering, {ToBytes("same")}).ok());
  ASSERT_TRUE(OrderBatch(ordering, {ToBytes("same")}).ok());
  EXPECT_EQ(ordering.CommittedCount(), 2u);
}

TEST(BatchedOrderingTest, ReplicasAgreeAfterBatches) {
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft", BatchOf(2));
  ASSERT_TRUE(OrderBatch(ordering, {ToBytes("a"), ToBytes("b")}).ok());
  ASSERT_TRUE(OrderBatch(ordering, {ToBytes("c")}).ok());
  ordering.network().RunUntilIdle();
  std::vector<const ledger::LedgerDb*> replicas;
  for (size_t i = 0; i < ordering.num_replicas(); ++i) {
    replicas.push_back(&ordering.ReplicaLedger(i));
  }
  EXPECT_TRUE(IntegrityAuditor::CheckReplicaAgreement(replicas).ok());
}

TEST(ShardedOrderingTest, RoutesDeterministicallyAndCommits) {
  ShardedPbftOrdering ordering(3, 4, net::SimNetConfig{});
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(ordering
                    .AppendRouted("key" + std::to_string(i),
                                  ToBytes("u" + std::to_string(i)), i)
                    .ok());
  }
  EXPECT_EQ(ordering.CommittedCount(), 12u);
  // Same key always lands on the same shard: re-appending key0's payload
  // grows only one shard.
  std::vector<uint64_t> before;
  for (size_t s = 0; s < 3; ++s) {
    before.push_back(ordering.Shard(s).CommittedCount());
  }
  ASSERT_TRUE(ordering.AppendRouted("key0", ToBytes("u0-again"), 99).ok());
  int grown = 0;
  for (size_t s = 0; s < 3; ++s) {
    if (ordering.Shard(s).CommittedCount() > before[s]) ++grown;
  }
  EXPECT_EQ(grown, 1);
  EXPECT_GT(ordering.MaxShardTime(), 0u);
}

// --------------------------------------------------- Pipelined ordering --

// Regression: the old commit stamp (seq * 1000 + i) collided once a batch
// held >= 1000 payloads — entry 1000 of batch seq stamped identically to
// entry 0 of batch seq+1. BatchEntryStamp packs (position, index) into
// disjoint bit ranges, so every entry of a 1100-payload batch plus a
// follow-up batch must carry a distinct stamp on every replica.
TEST(PipelinedOrderingTest, LargeBatchStampsAreUniqueAcrossBatches) {
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft-stamp-test",
                        BatchOf(1100));
  std::vector<Bytes> big;
  for (int i = 0; i < 1100; ++i) big.push_back(ToBytes("p" + std::to_string(i)));
  ASSERT_TRUE(OrderBatch(ordering, big).ok());
  ASSERT_TRUE(OrderBatch(ordering, {ToBytes("q0"), ToBytes("q1")}).ok());
  ordering.network().RunUntilIdle();
  ASSERT_EQ(ordering.CommittedCount(), 1102u);

  for (size_t r = 0; r < ordering.num_replicas(); ++r) {
    const ledger::LedgerDb& db = ordering.ReplicaLedger(r);
    ASSERT_EQ(db.size(), 1102u) << r;
    std::set<SimTime> stamps;
    for (uint64_t i = 0; i < db.size(); ++i) {
      stamps.insert(db.GetEntry(i)->timestamp);
    }
    EXPECT_EQ(stamps.size(), 1102u) << "stamp collision on replica " << r;
  }
  std::vector<const ledger::LedgerDb*> replicas;
  for (size_t i = 0; i < ordering.num_replicas(); ++i) {
    replicas.push_back(&ordering.ReplicaLedger(i));
  }
  EXPECT_TRUE(IntegrityAuditor::CheckReplicaAgreement(replicas).ok());
}

TEST(PipelinedOrderingTest, SubmitAsyncFlushCommitsEverything) {
  OrderingPipelineConfig pipeline;
  pipeline.max_batch = 8;
  pipeline.max_inflight = 4;
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft-async-test", pipeline);
  for (int i = 0; i < 30; ++i) {
    auto ticket = ordering.SubmitAsync(ToBytes("a" + std::to_string(i)), i);
    ASSERT_TRUE(ticket.ok());
    EXPECT_EQ(*ticket, static_cast<OrderingService::Ticket>(i));
  }
  ASSERT_TRUE(ordering.Flush().ok());
  EXPECT_EQ(ordering.CommittedCount(), 30u);
  // Ledger order matches submission order: batching must not reorder.
  for (uint64_t i = 0; i < 30; ++i) {
    EXPECT_EQ(ToString(ordering.Ledger().GetEntry(i)->payload),
              "a" + std::to_string(i));
  }
  // Flush with nothing pending is a no-op.
  EXPECT_TRUE(ordering.Flush().ok());
}

TEST(PipelinedOrderingTest, AdaptiveDelayClosesPartialBatch) {
  OrderingPipelineConfig pipeline;
  pipeline.max_batch = 64;  // Never filled by this test.
  pipeline.max_delay = 2 * kMillisecond;
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft-delay-test", pipeline);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ordering.SubmitAsync(ToBytes("d" + std::to_string(i)), i).ok());
  }
  // No Flush: the max_delay timer alone must seal and commit the batch.
  ordering.network().RunUntilIdle();
  EXPECT_EQ(ordering.CommittedCount(), 3u);
}


TEST(PipelinedOrderingTest, SinglePayloadBatchesSealPerEnqueue) {
  // max_batch = 1 degenerates the batcher to one envelope per payload:
  // every enqueue seals immediately, so no close timer and no Flush are
  // needed for commitment, and submission order must survive the window.
  OrderingPipelineConfig pipeline;
  pipeline.max_batch = 1;
  pipeline.max_inflight = 2;
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft-batch1-test", pipeline);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(ordering.SubmitAsync(ToBytes("s" + std::to_string(i)), i).ok());
  }
  ordering.network().RunUntilIdle();
  EXPECT_EQ(ordering.CommittedCount(), 9u);
  for (uint64_t i = 0; i < 9; ++i) {
    EXPECT_EQ(ToString(ordering.Ledger().GetEntry(i)->payload),
              "s" + std::to_string(i));
  }
}

TEST(PipelinedOrderingTest, ZeroDelayDisablesTimerButFlushStillDrains) {
  // max_delay = 0 arms no close timer: a partial batch stays open
  // indefinitely (draining the network commits nothing), and only Flush
  // seals and commits it. Guards the `max_delay > 0` condition around the
  // timer arm — a mutant arming a zero-delay timer would commit early.
  OrderingPipelineConfig pipeline;
  pipeline.max_batch = 64;
  pipeline.max_delay = 0;
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft-zerodelay-test",
                        pipeline);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ordering.SubmitAsync(ToBytes("z" + std::to_string(i)), i).ok());
  }
  ordering.network().RunUntilIdle();
  EXPECT_EQ(ordering.CommittedCount(), 0u) << "open batch sealed early";
  ASSERT_TRUE(ordering.Flush().ok());
  EXPECT_EQ(ordering.CommittedCount(), 5u);
}

TEST(PipelinedOrderingTest, FlushRecoversEnvelopesLostToLeaderCrash) {
  // Envelopes accepted by the leader but lost when it crash-stops must be
  // recovered by Flush's periodic re-submission, and the batch-id dedup
  // must keep the recovered payloads single-copy in every ledger.
  OrderingPipelineConfig pipeline;
  pipeline.max_batch = 4;
  pipeline.max_inflight = 2;
  RaftOrdering ordering(3, net::SimNetConfig{}, pipeline);
  ASSERT_TRUE(ordering.Append(ToBytes("warmup"), 0).ok());  // Elects a leader.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(ordering.SubmitAsync(ToBytes("c" + std::to_string(i)), i).ok());
  }
  auto leader = ordering.cluster().Leader();
  ASSERT_TRUE(leader.ok());
  (*leader)->Crash();  // In-flight envelopes on the wire die with it.
  (*leader)->Restart();
  ASSERT_TRUE(ordering.Flush().ok());
  EXPECT_EQ(ordering.CommittedCount(), 13u);
  EXPECT_EQ(ordering.Ledger().size(), 13u) << "crash recovery duplicated";
}

TEST(PipelinedOrderingTest, RaftPipelineCommitsAndReplicasAgree) {
  OrderingPipelineConfig pipeline;
  pipeline.max_batch = 4;
  pipeline.max_inflight = 8;
  RaftOrdering ordering(3, net::SimNetConfig{}, pipeline);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(ordering.SubmitAsync(ToBytes("r" + std::to_string(i)), i).ok());
  }
  ASSERT_TRUE(ordering.Flush().ok());
  EXPECT_EQ(ordering.CommittedCount(), 25u);
  // Followers catch up on subsequent heartbeats; Raft timers re-arm forever,
  // so step a bounded number of events rather than draining to idle.
  auto all_caught_up = [&] {
    for (size_t i = 0; i < 3; ++i) {
      if (ordering.ReplicaLedger(i).size() < 25) return false;
    }
    return true;
  };
  for (int i = 0; i < 20000 && !all_caught_up() && ordering.network().Step();
       ++i) {
  }
  std::vector<const ledger::LedgerDb*> replicas;
  for (size_t i = 0; i < 3; ++i) replicas.push_back(&ordering.ReplicaLedger(i));
  EXPECT_TRUE(IntegrityAuditor::CheckReplicaAgreement(replicas).ok());
}

TEST(PipelinedOrderingTest, RaftAppendBatchCommitsInOrder) {
  RaftOrdering ordering(3, net::SimNetConfig{}, BatchOf(3));
  ASSERT_TRUE(
      OrderBatch(ordering, {ToBytes("x"), ToBytes("y"), ToBytes("z")}).ok());
  EXPECT_EQ(ordering.CommittedCount(), 3u);
  EXPECT_EQ(ToString(ordering.Ledger().GetEntry(0)->payload), "x");
  EXPECT_EQ(ToString(ordering.Ledger().GetEntry(2)->payload), "z");
}

TEST(PipelinedOrderingTest, BlockingAppendIsStopAndWait) {
  // Append through a deep pipeline config still commits before returning —
  // the blocking API keeps its semantics for the seven engines.
  OrderingPipelineConfig pipeline;
  pipeline.max_batch = 64;
  pipeline.max_inflight = 8;
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft-blocking-test", pipeline);
  ASSERT_TRUE(ordering.Append(ToBytes("first"), 1).ok());
  EXPECT_EQ(ordering.CommittedCount(), 1u);
  ASSERT_TRUE(ordering.Append(ToBytes("second"), 2).ok());
  EXPECT_EQ(ordering.CommittedCount(), 2u);
}

TEST(PipelinedOrderingTest, ShardedAsyncRoutesAndFlushes) {
  OrderingPipelineConfig pipeline;
  pipeline.max_batch = 4;
  pipeline.max_inflight = 2;
  ShardedPbftOrdering ordering(3, 4, net::SimNetConfig{}, pipeline);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(ordering
                    .SubmitRoutedAsync("key" + std::to_string(i),
                                       ToBytes("v" + std::to_string(i)), i)
                    .ok());
  }
  ASSERT_TRUE(ordering.Flush().ok());
  EXPECT_EQ(ordering.CommittedCount(), 20u);
}

// ------------------------------------------------ Replicated apply tail --

template <typename T>
class ReplicatedApplyTest : public ::testing::Test {};

using ReplicatedOrderings = ::testing::Types<RaftOrdering, PbftOrdering>;
TYPED_TEST_SUITE(ReplicatedApplyTest, ReplicatedOrderings);

/// A fresh data directory for one test.
std::string FreshDataDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "prever_ordering_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Either protocol over 4 replicas, durable under `data_dir`.
template <typename Ordering>
std::unique_ptr<Ordering> MakeDurable(OrderingPipelineConfig pipeline,
                                      uint64_t checkpoint_interval,
                                      const std::string& data_dir) {
  if constexpr (std::is_base_of_v<RaftOrdering, Ordering>) {
    return std::make_unique<Ordering>(4, net::SimNetConfig{}, pipeline,
                                      checkpoint_interval, data_dir);
  } else {
    return std::make_unique<Ordering>(4, net::SimNetConfig{}, "pbft",
                                      pipeline, checkpoint_interval, data_dir);
  }
}

std::vector<recovery::JournalEvent> JournalOf(const std::string& data_dir,
                                              size_t replica) {
  auto events = recovery::CommitJournal::Recover(
      data_dir + "/r" + std::to_string(replica) + "/journal.wal");
  EXPECT_TRUE(events.ok()) << events.status().ToString();
  return events.ok() ? *events : std::vector<recovery::JournalEvent>{};
}

// ReplicatedOrdering::ApplyEnvelope is the one apply tail for both
// protocols: on every replica, the commit journal (the durable observer of
// its commits) must hold each appended entry exactly once and in ledger
// order, at strictly increasing consensus positions, with no batch id
// applied twice.
TYPED_TEST(ReplicatedApplyTest, ObserverMirrorsEveryReplicaLedger) {
  constexpr size_t kPayloads = 10;  // Three envelopes at max_batch 4.
  const std::string dir = FreshDataDir("journal_mirror");
  auto ordering = MakeDurable<TypeParam>(
      BatchOf(4), consensus::kDefaultCheckpointInterval, dir);
  for (size_t i = 0; i < kPayloads; ++i) {
    ASSERT_TRUE(ordering->SubmitAsync(ToBytes("e" + std::to_string(i)), 0)
                    .ok());
  }
  ASSERT_TRUE(ordering->Flush().ok());
  // Raft heartbeats never let the network go idle: run a bounded quiet
  // tail so every follower applies the committed suffix.
  ordering->network().RunUntil(ordering->network().Now() + 5 * kSecond);

  for (size_t r = 0; r < ordering->num_replicas(); ++r) {
    std::vector<Bytes> entries;
    std::vector<uint64_t> positions;
    std::vector<uint64_t> batch_ids;
    for (const recovery::JournalEvent& e : JournalOf(dir, r)) {
      entries.insert(entries.end(), e.entries.begin(), e.entries.end());
      positions.push_back(e.position);
      batch_ids.push_back(e.batch_id);
    }
    ASSERT_EQ(ordering->ReplicaLedger(r).size(), kPayloads) << r;
    EXPECT_EQ(entries, ordering->ReplicaLedger(r).EncodeEntries()) << r;
    EXPECT_EQ(positions.size(), 3u) << r;
    for (size_t k = 1; k < positions.size(); ++k) {
      EXPECT_LT(positions[k - 1], positions[k]) << r;
    }
    EXPECT_EQ(std::set<uint64_t>(batch_ids.begin(), batch_ids.end()).size(),
              batch_ids.size())
        << "batch applied twice on replica " << r;
  }
  std::filesystem::remove_all(dir);
}

// Exposes the protected apply tail so a test can hand it raw envelopes.
template <typename Ordering>
class ApplyProbe : public Ordering {
 public:
  using Ordering::Ordering;
  using Ordering::ApplyEnvelope;
};

// Batch envelope layout: [u64 batch_id][u32 count][bytes payload]...
Bytes EncodeEnvelope(uint64_t batch_id, uint32_t count,
                     const std::vector<Bytes>& payloads) {
  BinaryWriter w;
  w.WriteU64(batch_id);
  w.WriteU32(count);
  for (const Bytes& p : payloads) w.WriteBytes(p);
  return w.Take();
}

// ApplyEnvelope decodes the whole envelope before it appends: a malformed
// envelope leaves every replica ledger untouched and journals nothing, and
// a well-formed envelope at the next position still applies.
TYPED_TEST(ReplicatedApplyTest, MalformedEnvelopeAppendsNothing) {
  const std::string dir = FreshDataDir("malformed");
  auto ordering = MakeDurable<ApplyProbe<TypeParam>>(
      OrderingPipelineConfig(), consensus::kDefaultCheckpointInterval, dir);
  const std::vector<Bytes> two = {ToBytes("a"), ToBytes("bcd")};
  const Bytes short_count = EncodeEnvelope(1, 3, two);
  Bytes overrun = EncodeEnvelope(2, 2, two);
  overrun.pop_back();  // The last payload's length now runs past the end.

  for (size_t r = 0; r < ordering->num_replicas(); ++r) {
    ordering->ApplyEnvelope(r, 1, short_count);
    ordering->ApplyEnvelope(r, 2, overrun);
    EXPECT_EQ(ordering->ReplicaLedger(r).size(), 0u) << r;
    EXPECT_EQ(JournalOf(dir, r).size(), 0u) << r;
  }
  EXPECT_EQ(ordering->CommittedCount(), 0u);

  const Bytes good = EncodeEnvelope(3, 2, two);
  for (size_t r = 0; r < ordering->num_replicas(); ++r) {
    ordering->ApplyEnvelope(r, 3, good);
    const ledger::LedgerDb& ledger = ordering->ReplicaLedger(r);
    ASSERT_EQ(ledger.size(), 2u) << r;
    EXPECT_EQ(JournalOf(dir, r).size(), 1u) << r;
    for (uint32_t i = 0; i < 2; ++i) {
      EXPECT_EQ(ledger.GetEntry(i)->payload, two[i]) << r;
      EXPECT_EQ(ledger.GetEntry(i)->timestamp, BatchEntryStamp(3, i)) << r;
    }
  }
  EXPECT_EQ(ordering->CommittedCount(), 2u);
  std::filesystem::remove_all(dir);
}

// The production restart path: a backup crashes, the survivors commit past
// a durable checkpoint (Raft compacts its log there), and RestartReplica
// brings the backup back from its checkpoint and journal. After a Flush
// and a quiet tail, its ledger equals replica 0's, every payload is on it
// exactly once, and the restart recorded one recovery-time sample.
TYPED_TEST(ReplicatedApplyTest, RestartedReplicaRejoinsFromItsDurableRecord) {
  const std::string dir = FreshDataDir("restart");
  constexpr uint64_t kInterval = 4;
  auto ordering = MakeDurable<TypeParam>(BatchOf(2), kInterval, dir);
  // A backup that is neither the commit counter nor the Raft leader.
  size_t victim = 3;
  if constexpr (std::is_same_v<TypeParam, RaftOrdering>) {
    auto leader = ordering->cluster().Leader();
    ASSERT_TRUE(leader.ok());
    if ((*leader)->id() == victim) victim = 2;
  }
  std::vector<Bytes> submitted;
  auto commit = [&](int n) {
    for (int k = 0; k < n; ++k) {
      submitted.push_back(ToBytes("p" + std::to_string(submitted.size())));
      ASSERT_TRUE(ordering->Append(submitted.back(), 0).ok());
    }
  };
  commit(6);
  ordering->network().RunUntil(ordering->network().Now() + kSecond);
  const ledger::LedgerDigest at_crash = ordering->ReplicaLedger(victim).Digest();
  ASSERT_TRUE(ordering->CrashReplica(victim).ok());
  commit(static_cast<int>(3 * kInterval));
  obs::Histogram* recovery_time =
      obs::Registry::Default().GetHistogram("prever_recovery_time_us");
  const uint64_t samples = recovery_time->snapshot().count;
  ASSERT_TRUE(ordering->RestartReplica(victim).ok());
  EXPECT_EQ(recovery_time->snapshot().count, samples + 1);
  // Before any network step, the durable record alone holds at least what
  // the replica had at the crash.
  auto prefix = ordering->ReplicaLedger(victim).DigestAt(at_crash.size);
  ASSERT_TRUE(prefix.ok());
  EXPECT_TRUE(*prefix == at_crash);
  commit(2);
  ASSERT_TRUE(ordering->Flush().ok());
  ordering->network().RunUntil(ordering->network().Now() + 5 * kSecond);

  const ledger::LedgerDb& restarted = ordering->ReplicaLedger(victim);
  EXPECT_TRUE(restarted.Digest() == ordering->ReplicaLedger(0).Digest());
  std::map<Bytes, int> seen;
  for (uint64_t s = 0; s < restarted.size(); ++s) {
    ++seen[restarted.GetEntry(s)->payload];
  }
  ASSERT_EQ(seen.size(), submitted.size());
  for (const Bytes& p : submitted) EXPECT_EQ(seen[p], 1) << ToString(p);
  std::filesystem::remove_all(dir);
}

// Raft reports the consensus metrics DESIGN.md lists: electing the initial
// leader counts an election and the votes it took.
TEST(RaftMetricsTest, ElectionAndMessagesAreCounted) {
  obs::Registry& reg = obs::Registry::Default();
  obs::Counter* elections =
      reg.GetCounter("prever_consensus_elections_total", {{"proto", "raft"}});
  obs::Counter* votes = reg.GetCounter(
      "prever_consensus_msgs_total",
      {{"proto", "raft"}, {"type", "request_vote"}, {"dir", "sent"}});
  obs::Counter* appends = reg.GetCounter(
      "prever_consensus_msgs_total",
      {{"proto", "raft"}, {"type", "append_entries"}, {"dir", "recv"}});
  const uint64_t elections0 = elections->value();
  const uint64_t votes0 = votes->value();
  const uint64_t appends0 = appends->value();
  RaftOrdering ordering(3, net::SimNetConfig{});
  ASSERT_TRUE(ordering.Append(ToBytes("x"), 0).ok());
  EXPECT_GE(elections->value() - elections0, 1u);
  EXPECT_GT(votes->value() - votes0, 0u);
  EXPECT_GT(appends->value() - appends0, 0u);
}

// ------------------------------------- PBFT checkpoints & state transfer --

uint64_t StateTransferBytes() {
  return obs::Registry::Default()
      .GetCounter("prever_recovery_state_transfer_bytes")
      ->value();
}

bool LedgersAgree(const PbftOrdering& ordering) {
  for (size_t r = 1; r < ordering.num_replicas(); ++r) {
    if (!(ordering.ReplicaLedger(r).Digest() ==
          ordering.ReplicaLedger(0).Digest())) {
      return false;
    }
  }
  return true;
}

// A restarted replica and a replica cut off for several intervals both
// catch up by installing the full state behind a peer's stable certificate
// plus the certified suffix; afterwards every ledger is digest-identical.
TEST(PbftStateTransferTest, LaggingReplicasInstallCertifiedState) {
  constexpr uint64_t kInterval = 8;
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft-transfer-test",
                        OrderingPipelineConfig(), kInterval);
  auto append = [&ordering](int n) {
    for (int k = 0; k < n; ++k) {
      ASSERT_TRUE(ordering.Append(ToBytes("t" + std::to_string(
                                      ordering.CommittedCount())), 0)
                      .ok());
    }
  };
  append(10);
  // Crash-stop replica 3 while the others run five intervals, then restart
  // it from nothing: Restart fetches state.
  ordering.network().CrashNode(3);
  ordering.cluster().replica(3).Crash();
  append(40);
  const uint64_t transferred = StateTransferBytes();
  ordering.network().RestartNode(3);
  ordering.cluster().replica(3).Restart(Bytes{});
  append(2);
  ordering.network().RunUntil(ordering.network().Now() + 2 * kSecond);
  EXPECT_GT(StateTransferBytes(), transferred);
  EXPECT_GE(ordering.cluster().replica(3).stable_checkpoint_seq(), 48u);
  EXPECT_EQ(ordering.cluster().replica(3).last_executed(), 52u);
  EXPECT_TRUE(LedgersAgree(ordering));

  // Cut replica 2 off for three intervals. Once reconnected, the next peer
  // checkpoint a full interval past its execution point makes it fetch.
  ordering.network().Isolate(2);
  append(3 * kInterval);
  ordering.network().Reconnect(2);
  append(2 * kInterval);
  ordering.network().RunUntil(ordering.network().Now() + 2 * kSecond);
  EXPECT_EQ(ordering.cluster().replica(2).last_executed(),
            ordering.cluster().replica(0).last_executed());
  EXPECT_TRUE(LedgersAgree(ordering));
}

// The full state behind a certificate installs only if it reproduces the
// certificate: the executed digests its running hash, the ledger prefix its
// size and Merkle root. A tampered state changes nothing.
TEST(PbftStateTransferTest, StateMustMatchItsCertificate) {
  constexpr uint64_t kInterval = 4;
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft-cert-test",
                        OrderingPipelineConfig(), kInterval);
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(ordering.Append(ToBytes("c" + std::to_string(k)), 0).ok());
  }
  ASSERT_EQ(ordering.cluster().replica(1).stable_checkpoint_seq(), 8u);

  // Application level: the ledger prefix against the summary.
  const Bytes summary = ordering.StateSummary(0);
  const Bytes state = ordering.EncodeStateAt(0, summary);
  ASSERT_FALSE(state.empty());
  Bytes tampered = state;
  tampered.back() ^= 0x01;  // Last byte of the last ledger entry.
  const ledger::LedgerDigest before = ordering.ReplicaLedger(3).Digest();
  EXPECT_FALSE(ordering.InstallState(3, summary, tampered));
  EXPECT_TRUE(ordering.ReplicaLedger(3).Digest() == before);
  EXPECT_TRUE(ordering.InstallState(3, summary, state));
  Bytes wrong_root = summary;
  wrong_root.back() ^= 0x01;  // Last byte of the Merkle root.
  EXPECT_TRUE(ordering.EncodeStateAt(0, wrong_root).empty());

  // Protocol level: a saved stable state restores a crashed replica; the
  // same state with one executed digest flipped does not.
  consensus::PbftReplica& replica = ordering.cluster().replica(3);
  const Bytes blob = ordering.cluster().replica(1).EncodeStableState();
  ASSERT_FALSE(blob.empty());
  const size_t cert_bytes = replica.stable_checkpoint_cert().size();
  ASSERT_GT(cert_bytes, 0u);
  Bytes bad_digest = blob;
  // [u32 len][cert][u64 n][u32 len][first digest]...
  bad_digest[4 + cert_bytes + 8 + 4] ^= 0x01;
  replica.Crash();
  replica.Restart(bad_digest);
  EXPECT_EQ(replica.stable_checkpoint_seq(), 0u);
  EXPECT_EQ(replica.last_executed(), 0u);
  replica.Crash();
  replica.Restart(blob);
  EXPECT_EQ(replica.stable_checkpoint_seq(), 8u);
  EXPECT_EQ(replica.last_executed(), 8u);
  EXPECT_EQ(replica.stable_checkpoint_cert(),
            ordering.cluster().replica(1).stable_checkpoint_cert());
}

constexpr uint32_t kPbftPrePrepareType = 2;
constexpr uint32_t kPbftCheckpointType = 7;

uint64_t PbftMsgsSent(const std::string& type) {
  return obs::Registry::Default()
      .GetCounter("prever_consensus_msgs_total",
                  {{"proto", "pbft"}, {"type", type}, {"dir", "sent"}})
      ->value();
}

// One faulty replica claiming checkpoints far past everyone's execution
// point is not f+1 replicas: no correct replica fetches state because of
// it, and none keeps the forged seqs as pending checkpoints.
TEST(PbftStateTransferTest, ForgedFarFutureCheckpointTriggersNoFetch) {
  constexpr uint64_t kInterval = 8;
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft-forged-cp-test",
                        OrderingPipelineConfig(), kInterval);
  for (int k = 0; k < 20; ++k) {
    ASSERT_TRUE(ordering.Append(ToBytes("f" + std::to_string(k)), 0).ok());
  }
  const uint64_t fetches = PbftMsgsSent("fetch_state");
  for (uint64_t k = 0; k < 100; ++k) {
    BinaryWriter cert;
    cert.WriteU64((uint64_t{1} << 40) + k * kInterval);
    cert.WriteU64(0);
    cert.WriteBytes(Bytes(32, 0));
    cert.WriteBytes(Bytes{});
    for (net::NodeId to = 0; to < 3; ++to) {
      ordering.network().Send(3, to, kPbftCheckpointType, cert.bytes());
    }
  }
  for (int k = 0; k < 4 * static_cast<int>(kInterval); ++k) {
    ASSERT_TRUE(ordering.Append(ToBytes("g" + std::to_string(k)), 0).ok());
  }
  ordering.network().RunUntil(ordering.network().Now() + 2 * kSecond);
  EXPECT_EQ(PbftMsgsSent("fetch_state"), fetches)
      << "a single replica's checkpoint made a correct replica fetch";
  for (size_t i = 0; i < 3; ++i) {
    const consensus::PbftReplica& r = ordering.cluster().replica(i);
    EXPECT_GE(r.stable_checkpoint_seq(), 48u) << "replica " << i;
    EXPECT_LE(r.pending_checkpoints(), 4u) << "replica " << i;
  }
}

// A pre-prepare for a sequence number at or below the stable checkpoint
// arrives after its slot was collected: it must not re-create the slot or
// draw prepares.
TEST(PbftStateTransferTest, LatePrePrepareBelowStableIsDropped) {
  constexpr uint64_t kInterval = 4;
  PbftOrdering ordering(4, net::SimNetConfig{}, "pbft-late-pp-test",
                        OrderingPipelineConfig(), kInterval);
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(ordering.Append(ToBytes("l" + std::to_string(k)), 0).ok());
  }
  consensus::PbftReplica& backup = ordering.cluster().replica(1);
  ASSERT_EQ(backup.view(), 0u);
  ASSERT_EQ(backup.stable_checkpoint_seq(), 8u);
  ASSERT_FALSE(backup.HasSlot(1));
  const size_t slots = backup.log_slots();
  const uint64_t prepares = PbftMsgsSent("prepare");
  BinaryWriter w;
  w.WriteU64(0);  // view
  w.WriteU64(1);  // seq, collected at stable checkpoint 8
  w.WriteBytes(ToBytes("late"));
  ordering.network().Send(0, 1, kPbftPrePrepareType, w.bytes());
  ordering.network().RunUntil(ordering.network().Now() + 100 * kMillisecond);
  EXPECT_FALSE(backup.HasSlot(1));
  EXPECT_EQ(backup.log_slots(), slots);
  EXPECT_EQ(PbftMsgsSent("prepare"), prepares);
}

// ------------------------------------------------ String escape round trip

TEST(StringEscapeTest, QuotesAndBackslashesRoundTrip) {
  const std::string nasty_cases[] = {
      "with \"double\" quotes", "with 'single' quotes",
      "back\\slash",            "tab\tand\nnewline",
      "trailing backslash\\",
  };
  for (const std::string& s : nasty_cases) {
    storage::Value v = storage::Value::String(s);
    // The rendered literal must parse back to an equal literal expression.
    auto expr = constraint::ParseConstraint(v.ToString() + " = " + v.ToString());
    ASSERT_TRUE(expr.ok()) << v.ToString();
    constraint::EvalContext ctx;
    auto result = constraint::EvaluateBool(**expr, ctx);
    ASSERT_TRUE(result.ok()) << v.ToString();
    EXPECT_TRUE(*result);
    // And the parsed literal equals the original string.
    EXPECT_EQ(*(*expr)->lhs->literal.AsString(), s);
  }
}

}  // namespace
}  // namespace prever::core
