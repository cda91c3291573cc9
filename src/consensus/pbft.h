#ifndef PREVER_CONSENSUS_PBFT_H_
#define PREVER_CONSENSUS_PBFT_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "consensus/metrics.h"
#include "net/sim_net.h"

namespace prever::consensus {

/// Invoked on every replica, in sequence order, exactly once per committed
/// command.
using CommitCallback =
    std::function<void(uint64_t sequence, const Bytes& command)>;

/// Fault modes for adversarial testing. A Byzantine replica deviates from
/// the protocol; PBFT must stay safe (no divergence) and, with at most
/// f = (n-1)/3 faults, live.
enum class PbftFaultMode {
  kHonest,
  kSilent,       ///< Crashed / mute replica.
  kEquivocate,   ///< As primary, proposes different commands to different
                 ///< replicas for the same sequence number.
};

struct PbftConfig {
  size_t num_replicas = 4;
  SimTime view_change_timeout = 200 * kMillisecond;
  /// High-watermark window (PBFT §4.2's [h, H]): the primary keeps at most
  /// this many sequence numbers beyond the last executed one in flight, so
  /// up to `high_watermark_window` instances run the three phases
  /// concurrently. Requests beyond the window are deferred and proposed as
  /// execution advances the low watermark. Backups accept pre-prepares up to
  /// 2x the window past their own execution point (their view of the low
  /// watermark may lag the primary's).
  uint64_t high_watermark_window = 128;
  /// Castro–Liskov stable checkpoints (§4.3): every `checkpoint_interval`
  /// executions a replica broadcasts a checkpoint digest; 2f+1 matching
  /// digests advance the stable low watermark and garbage-collect the
  /// message log below it. 0 disables checkpointing (legacy behavior).
  uint64_t checkpoint_interval = 0;
  /// Lets a restarted or lagging replica fetch a peer's stable checkpoint
  /// plus the executed suffix and catch up (§4.3's state transfer).
  bool enable_state_transfer = false;
};

/// One PBFT replica (Castro–Liskov three-phase protocol over the simulated
/// network): pre-prepare → prepare (2f matching) → commit (2f+1 matching),
/// with view changes on primary failure. With checkpoint_interval set, the
/// replica also runs §4.3 stable checkpoints: 2f+1 matching checkpoint
/// digests advance the low watermark, garbage-collect the message log below
/// it, and anchor state transfer for restarted/lagging replicas. Commands
/// travel in full rather than digest-only.
class PbftReplica {
 public:
  /// Snapshot of the application state at the current execution point;
  /// embedded in checkpoint blobs and shipped during state transfer.
  using StateSnapshotFn = std::function<Bytes()>;
  /// Installs a transferred application snapshot taken at `sequence`.
  using StateInstallFn =
      std::function<void(uint64_t sequence, const Bytes& app_state)>;

  PbftReplica(net::NodeId id, const PbftConfig& config, net::SimNetwork* net);

  net::NodeId id() const { return id_; }
  uint64_t view() const { return view_; }
  uint64_t num_executed() const { return num_executed_; }
  uint64_t last_executed() const { return last_executed_; }
  bool IsPrimary() const { return view_ % config_.num_replicas == id_; }
  bool crashed() const { return crashed_; }

  /// Stable-checkpoint observables (0 / empty before the first one).
  uint64_t stable_checkpoint_seq() const { return stable_seq_; }
  const Bytes& stable_checkpoint_blob() const { return stable_blob_; }
  /// Message-log occupancy; bounded by checkpoint_interval + watermarks
  /// once checkpointing runs.
  size_t log_slots() const { return log_.size(); }
  bool HasSlot(uint64_t seq) const { return log_.count(seq) != 0; }

  void SetCommitCallback(CommitCallback cb) { commit_cb_ = std::move(cb); }
  void SetFaultMode(PbftFaultMode mode) { fault_mode_ = mode; }
  void SetStateCallbacks(StateSnapshotFn snapshot, StateInstallFn install) {
    state_snapshot_ = std::move(snapshot);
    state_install_ = std::move(install);
  }

  /// Optional instrumentation (shared across the cluster); may be null.
  void SetMetrics(ConsensusMetrics* metrics) { metrics_ = metrics; }

  /// Network ingress (registered with SimNetwork).
  void OnMessage(const net::Message& msg);

  /// Client request entry point (clients broadcast to all replicas; the
  /// primary proposes, backups arm a view-change timer).
  void OnClientRequest(const Bytes& command);

  /// Crash-stop: wipes all volatile protocol state (message log, votes,
  /// queues) and mutes the replica until Restart. The view number persists,
  /// modeling the durable view counter.
  void Crash();

  /// Restarts through the recovery path: installs `checkpoint_blob` (a
  /// stable-checkpoint blob saved durably before the crash; empty = cold
  /// start) and, when enabled, requests state transfer from peers to cover
  /// the executions past the checkpoint.
  void Restart(const Bytes& checkpoint_blob);

 public:
  /// A prepared-but-unexecuted slot carried across a view change. Public so
  /// the wire codec helpers can name it.
  struct PreparedEntry {
    uint64_t seq = 0;
    uint64_t view = 0;
    Bytes command;
  };

 private:
  struct SlotState {
    uint64_t view = 0;
    Bytes digest;
    Bytes command;
    bool pre_prepared = false;
    /// Votes per digest so an equivocating primary cannot pool quorums
    /// across conflicting proposals.
    std::map<Bytes, std::set<net::NodeId>> prepares;
    std::map<Bytes, std::set<net::NodeId>> commits;
    bool sent_commit = false;
    bool executed = false;
  };

  size_t f() const { return (config_.num_replicas - 1) / 3; }
  size_t quorum2f() const { return 2 * f(); }
  size_t quorum2f1() const { return 2 * f() + 1; }

  void SendMsg(net::NodeId to, uint32_t type, const Bytes& payload);
  void Broadcast(uint32_t type, const Bytes& payload);
  void HandlePrePrepare(const net::Message& msg);
  void HandlePrepare(const net::Message& msg);
  void HandleCommit(const net::Message& msg);
  void HandleViewChange(const net::Message& msg);
  void HandleNewView(const net::Message& msg);
  void HandleCheckpoint(const net::Message& msg);
  void HandleFetchState(const net::Message& msg);
  void HandleStateResponse(const net::Message& msg);

  void Propose(const Bytes& command);
  void MaybeSendCommit(uint64_t seq);
  void TryExecute();
  void ExecuteLoop();
  void DrainDeferred();
  Bytes BuildCheckpointBlob() const;
  void InstallCheckpointBlob(const Bytes& blob);
  void MaybeCreateCheckpoint();
  void MaybeStabilize(uint64_t seq);
  void CollectGarbage();
  void RequestStateTransfer();
  void TryInstallState();
  void ExecuteCertifiedSuffix();
  void ArmRequestTimer(const Bytes& digest);
  void Stash(const net::Message& msg);
  void StartViewChange(uint64_t new_view);
  void MaybeBecomeNewPrimary(uint64_t new_view);
  void InstallNewView(uint64_t new_view,
                      const std::vector<PreparedEntry>& entries);

  SlotState& Slot(uint64_t seq) { return log_[seq]; }

  net::NodeId id_;
  PbftConfig config_;
  net::SimNetwork* net_;
  CommitCallback commit_cb_;
  StateSnapshotFn state_snapshot_;
  StateInstallFn state_install_;
  PbftFaultMode fault_mode_ = PbftFaultMode::kHonest;
  ConsensusMetrics* metrics_ = nullptr;

  bool crashed_ = false;
  uint64_t view_ = 0;
  bool view_changing_ = false;
  uint64_t next_seq_ = 1;       // Primary's next proposal number.
  uint64_t last_executed_ = 0;  // Highest contiguously executed seq.
  uint64_t num_executed_ = 0;
  std::map<uint64_t, SlotState> log_;
  std::set<Bytes> seen_requests_;    // Digests proposed (primary dedup).
  /// Requests this primary received while its watermark window was full,
  /// in arrival order; drained after each execution. Cleared on view change
  /// (the commands stay in pending_requests_, so the new primary re-proposes
  /// them).
  std::deque<Bytes> deferred_;
  std::set<Bytes> deferred_digests_;  // Dedup for deferred_.
  std::set<Bytes> executed_digests_; // For timer cancellation.
  std::map<Bytes, bool> pending_timers_;  // digest -> armed.
  std::map<Bytes, Bytes> pending_requests_;  // digest -> command.
  // View-change bookkeeping: new_view -> sender -> prepared entries.
  std::map<uint64_t, std::map<net::NodeId, std::vector<PreparedEntry>>>
      view_change_entries_;
  uint64_t installed_new_view_ = 0;  // Highest NewView this primary sent.
  /// Normal-phase messages that raced ahead of a view installation are
  /// stashed and replayed after InstallNewView (bounded to avoid unbounded
  /// growth under Byzantine spam).
  std::vector<net::Message> stashed_;

  // ---- Stable checkpoints & state transfer (§4.3) ----
  struct PendingCheckpoint {
    bool has_own = false;  ///< We produced our own blob at this seq.
    Bytes own_blob;
    Bytes own_digest;
    std::map<Bytes, std::set<net::NodeId>> votes;  // digest -> voters
  };
  /// A peer's reply to our fetch-state request, parsed.
  struct StateResponse {
    uint64_t view = 0;
    uint64_t stable_seq = 0;
    Bytes stable_blob;
    std::map<uint64_t, Bytes> suffix;  // seq -> command (executed).
  };

  std::map<uint64_t, PendingCheckpoint> checkpoints_;
  uint64_t stable_seq_ = 0;
  Bytes stable_blob_;
  Bytes stable_digest_;
  uint64_t max_seen_checkpoint_seq_ = 0;
  std::map<net::NodeId, StateResponse> state_responses_;
  bool fetch_inflight_ = false;
};

/// Convenience wrapper owning n replicas wired to one SimNetwork, plus the
/// client side (broadcast submission and commit counting).
class PbftCluster {
 public:
  PbftCluster(const PbftConfig& config, net::SimNetwork* net);

  /// Broadcasts a client request to all replicas.
  void Submit(const Bytes& command);

  PbftReplica& replica(size_t i) { return *replicas_[i]; }
  size_t size() const { return replicas_.size(); }

  /// Sets one callback invoked per replica commit (replica id, seq, cmd).
  /// The cluster keeps no copy of what its replicas execute.
  void SetCommitCallback(
      std::function<void(net::NodeId, uint64_t, const Bytes&)> cb);

 private:
  std::unique_ptr<ConsensusMetrics> metrics_;
  std::vector<std::unique_ptr<PbftReplica>> replicas_;
};

}  // namespace prever::consensus

#endif  // PREVER_CONSENSUS_PBFT_H_
