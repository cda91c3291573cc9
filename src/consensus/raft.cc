#include "consensus/raft.h"

#include <algorithm>
#include <cstddef>

#include "common/serial.h"
#include "mutate/mutation.h"
#include "obs/registry.h"
#include "obs/tracing.h"

namespace prever::consensus {

namespace {

enum RaftMsgType : uint32_t {
  kRequestVote = 10,
  kVoteReply = 11,
  kAppendEntries = 12,
  kAppendReply = 13,
  kInstallSnapshot = 14,
};

obs::Counter& StateTransferBytesCounter() {
  static obs::Counter* c =
      obs::Registry::Default().GetCounter("prever_recovery_state_transfer_bytes");
  return *c;
}

obs::Counter& LogBytesReclaimedCounter() {
  static obs::Counter* c =
      obs::Registry::Default().GetCounter("prever_recovery_log_bytes_reclaimed");
  return *c;
}

}  // namespace

RaftReplica::RaftReplica(net::NodeId id, const RaftConfig& config,
                         net::SimNetwork* net, uint64_t seed)
    : id_(id),
      config_(config),
      net_(net),
      rng_(seed),
      next_index_(config.num_replicas, 1),
      match_index_(config.num_replicas, 0) {}

void RaftReplica::Start() { ArmElectionTimer(); }

void RaftReplica::SendMsg(net::NodeId to, uint32_t type,
                          const Bytes& payload) {
  if (metrics_ != nullptr) metrics_->OnSend(type);
  net_->Send(id_, to, type, payload);
}

void RaftReplica::Crash() {
  crashed_ = true;
  ++timer_epoch_;
}

void RaftReplica::Restart() {
  crashed_ = false;
  role_ = Role::kFollower;
  votes_.clear();
  ++timer_epoch_;
  ArmElectionTimer();
}

void RaftReplica::Recover(uint64_t applied_floor) {
  Restart();
  // The caller's durable state (checkpoint + journal) covers entries up to
  // applied_floor; everything committed above it is re-delivered through the
  // apply callback. The floor never drops below the snapshot (those commands
  // are gone from the log) and never exceeds what was actually committed.
  last_applied_ = std::max(snapshot_index_,
                           std::min(applied_floor, commit_index_));
  ApplyCommitted();
}

Result<uint64_t> RaftReplica::CompactTo(uint64_t index, const Bytes& app_blob) {
  // Never compact entries that have not been applied: their commands would
  // be unrecoverable before reaching the state machine.
  uint64_t bound = PREVER_MUTATION(RAFT_COMPACT_BEYOND_APPLIED,
                                   std::min(index, last_applied_),
                                   std::min(index, LastIndex()));
  if (bound <= snapshot_index_) return uint64_t{0};
  uint64_t reclaimed = 0;
  uint64_t drop = bound - snapshot_index_;
  for (uint64_t i = 0; i < drop; ++i) {
    reclaimed += sizeof(LogEntry) + log_[i].command.size();
  }
  snapshot_term_ = TermAt(bound);
  log_.erase(log_.begin(), log_.begin() + static_cast<std::ptrdiff_t>(drop));
  snapshot_index_ = bound;
  snapshot_blob_ = app_blob;
  LogBytesReclaimedCounter().Inc(reclaimed);
  return reclaimed;
}

void RaftReplica::ArmElectionTimer() {
  uint64_t epoch = ++timer_epoch_;
  SimTime span =
      config_.election_timeout_max - config_.election_timeout_min + 1;
  SimTime delay = config_.election_timeout_min + rng_.NextBelow(span);
  net_->ScheduleAfter(delay, [this, epoch] {
    if (crashed_ || epoch != timer_epoch_) return;
    if (role_ != Role::kLeader) StartElection();
  });
}

void RaftReplica::ArmHeartbeatTimer() {
  uint64_t epoch = timer_epoch_;
  net_->ScheduleAfter(config_.heartbeat_interval, [this, epoch] {
    if (crashed_ || epoch != timer_epoch_ || role_ != Role::kLeader) return;
    BroadcastAppendEntries();
    ArmHeartbeatTimer();
  });
}

void RaftReplica::BecomeFollower(uint64_t term) {
  term_ = term;
  role_ = Role::kFollower;
  voted_for_ = -1;
  votes_.clear();
  ArmElectionTimer();
}

void RaftReplica::StartElection() {
  if (metrics_ != nullptr) metrics_->OnElection();
  role_ = Role::kCandidate;
  ++term_;
  voted_for_ = static_cast<int64_t>(id_);
  votes_ = {id_};
  ArmElectionTimer();  // Retry election if this one stalls.
  BinaryWriter w;
  w.WriteU64(term_);
  w.WriteU64(LastIndex());
  w.WriteU64(LastLogTerm());
  for (net::NodeId to = 0; to < config_.num_replicas; ++to) {
    if (to != id_) SendMsg(to, kRequestVote, w.bytes());
  }
  if (PREVER_MUTATION(RAFT_VOTE_QUORUM_MINUS_ONE, votes_.size() >= Majority(),
                      votes_.size() + 1 >= Majority())) {
    BecomeLeader();  // 1-node cluster.
  }
}

void RaftReplica::BecomeLeader() {
  role_ = Role::kLeader;
  for (size_t i = 0; i < config_.num_replicas; ++i) {
    next_index_[i] = LastIndex() + 1;
    match_index_[i] = 0;
  }
  match_index_[id_] = LastIndex();
  ++timer_epoch_;  // Cancel election timers.
  BroadcastAppendEntries();
  ArmHeartbeatTimer();
}

Status RaftReplica::Submit(const Bytes& command) {
  if (crashed_) return Status::Unavailable("replica crashed");
  if (role_ != Role::kLeader) return Status::NotSupported("not the leader");
  log_.push_back(LogEntry{term_, command});
  match_index_[id_] = LastIndex();
  BroadcastAppendEntries();
  return Status::Ok();
}

void RaftReplica::BroadcastAppendEntries() {
  for (net::NodeId to = 0; to < config_.num_replicas; ++to) {
    if (to != id_) SendAppendEntries(to);
  }
}

void RaftReplica::SendAppendEntries(net::NodeId to) {
  if (next_index_[to] <= snapshot_index_) {
    // The entries the follower needs were compacted away: state transfer.
    SendInstallSnapshot(to);
    return;
  }
  uint64_t prev_index = next_index_[to] - 1;
  uint64_t prev_term = TermAt(prev_index);
  BinaryWriter w;
  w.WriteU64(term_);
  w.WriteU64(prev_index);
  w.WriteU64(prev_term);
  w.WriteU64(commit_index_);
  uint64_t count = LastIndex() - prev_index;
  w.WriteU32(static_cast<uint32_t>(count));
  for (uint64_t i = prev_index + 1; i <= LastIndex(); ++i) {
    const LogEntry& e = log_[i - snapshot_index_ - 1];
    w.WriteU64(e.term);
    w.WriteBytes(e.command);
  }
  SendMsg(to, kAppendEntries, w.bytes());
  // Pipelining: optimistically advance next_index so entries submitted
  // before the reply arrives stream in follow-up AppendEntries instead of
  // waiting a full round trip. The reply's conflict hint walks it back if
  // the follower's log diverged.
  next_index_[to] = LastIndex() + 1;
}

void RaftReplica::SendInstallSnapshot(net::NodeId to) {
  BinaryWriter w;
  w.WriteU64(term_);
  w.WriteU64(snapshot_index_);
  w.WriteU64(snapshot_term_);
  w.WriteBytes(snapshot_blob_);
  SendMsg(to, kInstallSnapshot, w.bytes());
  // Optimistic, like SendAppendEntries: stream the post-snapshot suffix
  // without waiting for the install acknowledgement.
  next_index_[to] = snapshot_index_ + 1;
}

void RaftReplica::OnMessage(const net::Message& msg) {
  if (crashed_) return;
  if (metrics_ != nullptr) metrics_->OnRecv(msg.type);
  switch (msg.type) {
    case kRequestVote:
      HandleRequestVote(msg);
      break;
    case kVoteReply:
      HandleVoteReply(msg);
      break;
    case kAppendEntries:
      HandleAppendEntries(msg);
      break;
    case kAppendReply:
      HandleAppendReply(msg);
      break;
    case kInstallSnapshot:
      HandleInstallSnapshot(msg);
      break;
    default:
      break;
  }
}

void RaftReplica::HandleRequestVote(const net::Message& msg) {
  BinaryReader r(msg.payload);
  auto term = r.ReadU64();
  auto last_log_index = r.ReadU64();
  auto last_log_term = r.ReadU64();
  if (!term.ok() || !last_log_index.ok() || !last_log_term.ok()) return;

  if (*term > term_) BecomeFollower(*term);
  bool grant = false;
  if (*term == term_ &&
      (voted_for_ == -1 || voted_for_ == static_cast<int64_t>(msg.from))) {
    // Election restriction: candidate's log must be at least as up to date.
    bool up_to_date =
        *last_log_term > LastLogTerm() ||
        (*last_log_term == LastLogTerm() && *last_log_index >= LastIndex());
    if (PREVER_MUTATION(RAFT_ELECTION_RESTRICTION_SKIP, up_to_date, true)) {
      grant = true;
      voted_for_ = static_cast<int64_t>(msg.from);
      ArmElectionTimer();
    }
  }
  BinaryWriter w;
  w.WriteU64(term_);
  w.WriteBool(grant);
  SendMsg(msg.from, kVoteReply, w.bytes());
}

void RaftReplica::HandleVoteReply(const net::Message& msg) {
  BinaryReader r(msg.payload);
  auto term = r.ReadU64();
  auto grant = r.ReadBool();
  if (!term.ok() || !grant.ok()) return;
  if (*term > term_) {
    BecomeFollower(*term);
    return;
  }
  if (role_ != Role::kCandidate || *term != term_ || !*grant) return;
  votes_.insert(msg.from);
  if (PREVER_MUTATION(RAFT_VOTE_QUORUM_MINUS_ONE, votes_.size() >= Majority(),
                      votes_.size() + 1 >= Majority())) {
    BecomeLeader();
  }
}

void RaftReplica::HandleAppendEntries(const net::Message& msg) {
  BinaryReader r(msg.payload);
  auto term = r.ReadU64();
  auto prev_index = r.ReadU64();
  auto prev_term = r.ReadU64();
  auto leader_commit = r.ReadU64();
  auto count = r.ReadU32();
  if (!term.ok() || !prev_index.ok() || !prev_term.ok() ||
      !leader_commit.ok() || !count.ok()) {
    return;
  }
  // Hop marker in the flight recorder: the message's propagated context
  // (installed by SimNetwork around delivery) ties this replication hop to
  // the transaction whose envelope rides in the entries.
  PREVER_CAUSAL_INSTANT(obs::TraceStage::kRaftAppendEntries, *count);

  bool success = false;
  if (PREVER_MUTATION(RAFT_STALE_TERM_ACCEPT, *term >= term_, true)) {
    if (*term > term_ || role_ != Role::kFollower) BecomeFollower(*term);
    ArmElectionTimer();
    // Log consistency check at prev_index. A prev_index at or below our
    // snapshot is implied to match: snapshots cover only committed entries.
    if (*prev_index <= snapshot_index_ ||
        (*prev_index <= LastIndex() &&
         PREVER_MUTATION(RAFT_LOG_MATCH_SKIP,
                         TermAt(*prev_index) == *prev_term, true))) {
      success = true;
      uint64_t index = *prev_index;
      for (uint32_t i = 0; i < *count; ++i) {
        auto entry_term = r.ReadU64();
        auto command = r.ReadBytes();
        if (!entry_term.ok() || !command.ok()) return;
        ++index;
        if (index <= snapshot_index_) continue;  // Covered by our snapshot.
        if (index <= LastIndex()) {
          if (TermAt(index) != *entry_term) {
            // Conflict: truncate the divergent suffix.
            log_.resize(index - 1 - snapshot_index_);
            log_.push_back(LogEntry{*entry_term, *command});
          }
        } else {
          log_.push_back(LogEntry{*entry_term, *command});
        }
      }
      if (*leader_commit > commit_index_) {
        commit_index_ = std::min<uint64_t>(*leader_commit, LastIndex());
        ApplyCommitted();
      }
    }
  }
  BinaryWriter w;
  w.WriteU64(term_);
  w.WriteBool(success);
  w.WriteU64(success ? *prev_index + *count : 0);  // New match index.
  // Conflict hint: on rejection the leader can rewind next_index straight
  // to our log end instead of decrementing one entry per round trip.
  uint64_t hint =
      std::min<uint64_t>(LastIndex(), *prev_index > 0 ? *prev_index - 1 : 0);
  w.WriteU64(hint);
  SendMsg(msg.from, kAppendReply, w.bytes());
}

void RaftReplica::HandleAppendReply(const net::Message& msg) {
  BinaryReader r(msg.payload);
  auto term = r.ReadU64();
  auto success = r.ReadBool();
  auto match = r.ReadU64();
  auto hint = r.ReadU64();  // Absent in old-format replies; optional.
  if (!term.ok() || !success.ok() || !match.ok()) return;
  if (*term > term_) {
    BecomeFollower(*term);
    return;
  }
  if (role_ != Role::kLeader || *term != term_) return;
  if (*success) {
    match_index_[msg.from] = std::max(match_index_[msg.from], *match);
    // next_index was optimistically advanced at send time; never move it
    // backwards on a stale success reply.
    next_index_[msg.from] =
        std::max(next_index_[msg.from], match_index_[msg.from] + 1);
    AdvanceCommitIndex();
  } else {
    uint64_t next = next_index_[msg.from] > 1 ? next_index_[msg.from] - 1 : 1;
    if (hint.ok()) next = *hint + 1;
    next_index_[msg.from] = std::max(match_index_[msg.from] + 1, next);
    SendAppendEntries(msg.from);
  }
}

void RaftReplica::AdvanceCommitIndex() {
  for (uint64_t n = LastIndex(); n > commit_index_ && n > snapshot_index_;
       --n) {
    if (PREVER_MUTATION(RAFT_COMMIT_FOREIGN_TERM, TermAt(n) != term_,
                        false)) {
      break;  // Only current-term entries.
    }
    size_t count = 0;
    for (size_t i = 0; i < config_.num_replicas; ++i) {
      if (match_index_[i] >= n) ++count;
    }
    if (PREVER_MUTATION(RAFT_COMMIT_QUORUM_MINUS_ONE, count >= Majority(),
                        count + 1 >= Majority())) {
      commit_index_ = n;
      ApplyCommitted();
      break;
    }
  }
}

void RaftReplica::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    ++last_applied_;
    const Bytes* cmd = CommandAt(last_applied_);
    if (apply_cb_ && cmd != nullptr) apply_cb_(last_applied_, *cmd);
  }
}

void RaftReplica::HandleInstallSnapshot(const net::Message& msg) {
  BinaryReader r(msg.payload);
  auto term = r.ReadU64();
  auto snap_index = r.ReadU64();
  auto snap_term = r.ReadU64();
  auto blob = r.ReadBytes();
  if (!term.ok() || !snap_index.ok() || !snap_term.ok() || !blob.ok()) return;
  if (*term < term_) {
    BinaryWriter w;
    w.WriteU64(term_);
    w.WriteBool(false);
    w.WriteU64(0);
    w.WriteU64(LastIndex());  // Conflict hint.
    SendMsg(msg.from, kAppendReply, w.bytes());
    return;
  }
  if (*term > term_ || role_ != Role::kFollower) BecomeFollower(*term);
  ArmElectionTimer();
  // A snapshot at or below our own snapshot/applied point is stale: our
  // state already covers it, so acknowledge without installing (a stale
  // install would rewind the application's restored state).
  bool fresh = *snap_index > snapshot_index_ && *snap_index > last_applied_;
  if (!PREVER_MUTATION(RAFT_SNAPSHOT_STALE_ACCEPT, !fresh, false)) {
    if (*snap_index > snapshot_index_) {
      if (LastIndex() >= *snap_index && TermAt(*snap_index) == *snap_term) {
        // Our log extends past the snapshot and agrees at its boundary:
        // retain the uncovered suffix (§7).
        log_.erase(log_.begin(),
                   log_.begin() +
                       static_cast<std::ptrdiff_t>(*snap_index -
                                                   snapshot_index_));
      } else {
        log_.clear();
      }
      snapshot_index_ = *snap_index;
      snapshot_term_ = *snap_term;
    }
    snapshot_blob_ = *blob;
    commit_index_ = std::max(commit_index_, *snap_index);
    last_applied_ = std::max(last_applied_, *snap_index);
    StateTransferBytesCounter().Inc(blob->size());
    PREVER_CAUSAL_INSTANT(obs::TraceStage::kStateTransfer, blob->size());
    if (snapshot_installer_) snapshot_installer_(*snap_index, *blob);
    ApplyCommitted();  // Log suffix may already be committed past the blob.
  }
  BinaryWriter w;
  w.WriteU64(term_);
  w.WriteBool(true);
  w.WriteU64(*snap_index);  // Match index: the snapshot covers the prefix.
  w.WriteU64(LastIndex());  // Conflict hint (unused on success).
  SendMsg(msg.from, kAppendReply, w.bytes());
}

RaftCluster::RaftCluster(const RaftConfig& config, net::SimNetwork* net)
    : metrics_(std::make_unique<ConsensusMetrics>(
          "raft", std::map<uint32_t, std::string>{
                      {kRequestVote, "request_vote"},
                      {kVoteReply, "vote_reply"},
                      {kAppendEntries, "append_entries"},
                      {kAppendReply, "append_reply"},
                      {kInstallSnapshot, "install_snapshot"}})) {
  for (size_t i = 0; i < config.num_replicas; ++i) {
    auto replica = std::make_unique<RaftReplica>(
        static_cast<net::NodeId>(i), config, net, config.seed * 1000 + i);
    replica->SetMetrics(metrics_.get());
    RaftReplica* raw = replica.get();
    net->AddNode([raw](const net::Message& msg) { raw->OnMessage(msg); });
    replicas_.push_back(std::move(replica));
  }
  for (auto& replica : replicas_) replica->Start();
}

Result<RaftReplica*> RaftCluster::Leader() {
  RaftReplica* leader = nullptr;
  uint64_t best_term = 0;
  for (auto& r : replicas_) {
    if (r->role() == RaftReplica::Role::kLeader && !r->crashed() &&
        r->term() >= best_term) {
      leader = r.get();
      best_term = r->term();
    }
  }
  if (leader == nullptr) return Status::Unavailable("no leader elected");
  return leader;
}

Status RaftCluster::Submit(const Bytes& command) {
  PREVER_ASSIGN_OR_RETURN(RaftReplica * leader, Leader());
  return leader->Submit(command);
}

}  // namespace prever::consensus
