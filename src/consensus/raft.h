#ifndef PREVER_CONSENSUS_RAFT_H_
#define PREVER_CONSENSUS_RAFT_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "consensus/metrics.h"
#include "net/sim_net.h"

namespace prever::consensus {

/// Raft (the engineerable Paxos-family protocol) serves as the paper's §6
/// crash-fault-tolerant comparator: one round-trip to a majority per commit,
/// versus PBFT's three phases and 3f+1 quorums.
struct RaftConfig {
  size_t num_replicas = 3;
  SimTime election_timeout_min = 150 * kMillisecond;
  SimTime election_timeout_max = 300 * kMillisecond;
  SimTime heartbeat_interval = 50 * kMillisecond;
  uint64_t seed = 7;  ///< Randomized election timeouts.
};

class RaftReplica {
 public:
  enum class Role { kFollower, kCandidate, kLeader };

  using ApplyCallback =
      std::function<void(uint64_t index, const Bytes& command)>;
  /// Invoked when an InstallSnapshot replaces this replica's state below
  /// `index` with the leader's snapshot blob (app-defined contents).
  using SnapshotInstaller =
      std::function<void(uint64_t index, const Bytes& blob)>;

  RaftReplica(net::NodeId id, const RaftConfig& config, net::SimNetwork* net,
              uint64_t seed);

  net::NodeId id() const { return id_; }
  Role role() const { return role_; }
  uint64_t term() const { return term_; }
  uint64_t commit_index() const { return commit_index_; }
  /// Logical log length (last log index); includes compacted entries.
  size_t log_size() const { return snapshot_index_ + log_.size(); }
  /// Entries physically held in memory (bounded by the compaction interval).
  size_t physical_log_entries() const { return log_.size(); }
  bool crashed() const { return crashed_; }
  uint64_t snapshot_index() const { return snapshot_index_; }
  uint64_t snapshot_term() const { return snapshot_term_; }
  const Bytes& snapshot_blob() const { return snapshot_blob_; }

  /// Invariant-checker accessors (1-based logical log indices). TermAt
  /// returns 0 and CommandAt returns nullptr for out-of-range indices;
  /// compacted entries (index <= snapshot_index) have no command and only
  /// the snapshot boundary's term is retained.
  uint64_t TermAt(uint64_t index) const {
    if (index == snapshot_index_) return snapshot_term_;
    if (index < snapshot_index_ || index > LastIndex()) return 0;
    return log_[index - snapshot_index_ - 1].term;
  }
  const Bytes* CommandAt(uint64_t index) const {
    if (index <= snapshot_index_ || index > LastIndex()) return nullptr;
    return &log_[index - snapshot_index_ - 1].command;
  }

  void SetApplyCallback(ApplyCallback cb) { apply_cb_ = std::move(cb); }
  void SetSnapshotInstaller(SnapshotInstaller cb) {
    snapshot_installer_ = std::move(cb);
  }

  /// Optional instrumentation (shared across the cluster); may be null.
  void SetMetrics(ConsensusMetrics* metrics) { metrics_ = metrics; }

  /// Starts timers; call once after all replicas exist.
  void Start();

  /// Leader-side client submission; NotSupported if not leader.
  Status Submit(const Bytes& command);

  void OnMessage(const net::Message& msg);

  /// Crash-stop: drops all state transitions until Restart. Volatile state
  /// (role, leadership) resets on restart; term/vote/log persist, modeling
  /// durable storage.
  void Crash();
  void Restart();

  /// Restart through the durable-recovery path: rejoin as a follower and
  /// re-apply committed entries above `applied_floor` (the highest index the
  /// caller's durable state already covers; clamped to [snapshot, commit]).
  /// Re-delivery above the floor is at-least-once — the apply callback must
  /// deduplicate, which the ordering layer's batch-id set does.
  void Recover(uint64_t applied_floor);

  /// App-driven log compaction (§7 snapshotting): drops entries at or below
  /// `index` (clamped to the applied prefix) and retains `app_blob` as the
  /// snapshot the leader ships to followers whose next index was truncated
  /// away. Returns bytes reclaimed from the in-memory log.
  Result<uint64_t> CompactTo(uint64_t index, const Bytes& app_blob);

 private:
  struct LogEntry {
    uint64_t term = 0;
    Bytes command;
  };

  size_t Majority() const { return config_.num_replicas / 2 + 1; }

  void SendMsg(net::NodeId to, uint32_t type, const Bytes& payload);
  void BecomeFollower(uint64_t term);
  void StartElection();
  void BecomeLeader();
  void SendAppendEntries(net::NodeId to);
  void BroadcastAppendEntries();
  void AdvanceCommitIndex();
  void ApplyCommitted();
  void ArmElectionTimer();
  void ArmHeartbeatTimer();

  void SendInstallSnapshot(net::NodeId to);

  void HandleRequestVote(const net::Message& msg);
  void HandleVoteReply(const net::Message& msg);
  void HandleAppendEntries(const net::Message& msg);
  void HandleAppendReply(const net::Message& msg);
  void HandleInstallSnapshot(const net::Message& msg);

  uint64_t LastIndex() const { return snapshot_index_ + log_.size(); }
  uint64_t LastLogTerm() const {
    return log_.empty() ? snapshot_term_ : log_.back().term;
  }

  net::NodeId id_;
  RaftConfig config_;
  net::SimNetwork* net_;
  Rng rng_;
  ApplyCallback apply_cb_;
  SnapshotInstaller snapshot_installer_;
  ConsensusMetrics* metrics_ = nullptr;

  bool crashed_ = false;
  Role role_ = Role::kFollower;
  uint64_t term_ = 0;
  int64_t voted_for_ = -1;
  // Compacted prefix: log_[0] holds logical index snapshot_index_ + 1.
  uint64_t snapshot_index_ = 0;
  uint64_t snapshot_term_ = 0;
  Bytes snapshot_blob_;
  std::vector<LogEntry> log_;       // 1-based logical indexing via helpers.
  uint64_t commit_index_ = 0;
  uint64_t last_applied_ = 0;
  std::set<net::NodeId> votes_;
  std::vector<uint64_t> next_index_;
  std::vector<uint64_t> match_index_;
  uint64_t timer_epoch_ = 0;  // Invalidates stale scheduled timers.
};

/// Owns n replicas over one SimNetwork and provides the client view.
class RaftCluster {
 public:
  RaftCluster(const RaftConfig& config, net::SimNetwork* net);

  RaftReplica& replica(size_t i) { return *replicas_[i]; }
  size_t size() const { return replicas_.size(); }

  /// Current leader, or error if none elected yet.
  Result<RaftReplica*> Leader();

  /// Submits via the current leader.
  Status Submit(const Bytes& command);

 private:
  std::unique_ptr<ConsensusMetrics> metrics_;
  std::vector<std::unique_ptr<RaftReplica>> replicas_;
};

}  // namespace prever::consensus

#endif  // PREVER_CONSENSUS_RAFT_H_
