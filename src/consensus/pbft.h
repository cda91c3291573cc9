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

/// Invoked on every replica, in sequence order, once per committed sequence
/// number. A request committed at two sequence numbers (re-proposed across
/// a view change, or re-sent by its client) is delivered at both: replicas
/// form a total-order broadcast, and exactly-once is the application's
/// (core::ReplicatedOrdering's BatchWindow).
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

/// Castro–Liskov's checkpoint period K: executions between two checkpoints.
inline constexpr uint64_t kDefaultCheckpointInterval = 128;

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
  /// Stable checkpoints (§4.3) run on every replica: every
  /// `checkpoint_interval` executions (at least 1; 0 is read as 1) a replica
  /// broadcasts a fixed-size checkpoint certificate, and 2f+1 matching
  /// certificates make it stable, advance the low watermark and
  /// garbage-collect the message log below it.
  uint64_t checkpoint_interval = kDefaultCheckpointInterval;
};

/// One PBFT replica (Castro–Liskov three-phase protocol over the simulated
/// network): pre-prepare → prepare (2f matching) → commit (2f+1 matching),
/// with view changes on primary failure, and §4.3 stable checkpoints with
/// state transfer. A checkpoint certificate is fixed-size: the sequence
/// number, the number of executed requests, a running hash over their
/// digests in execution order, and the application's fixed-size state
/// summary. The full state behind a stable certificate (the certificate
/// plus the application state) is encoded only when a peer fetches it or a
/// caller saves it; a replica fetches on restart and when f+1 peers have
/// checkpointed a full interval past its own execution point. Commands
/// travel in full rather than digest-only.
class PbftReplica {
 public:
  /// Fixed-size summary of the application state at the current execution
  /// point; embedded in every checkpoint certificate.
  using StateSummaryFn = std::function<Bytes()>;
  /// Full application state as of `summary`, a summary this replica
  /// produced at an earlier execution point; empty when it cannot be
  /// rebuilt. Shipped by state transfer.
  using StateEncodeFn = std::function<Bytes(const Bytes& summary)>;
  /// Checks `app_state` against the certified `summary` taken at
  /// `sequence` and installs it; false (with nothing changed) on mismatch.
  using StateInstallFn = std::function<bool(
      uint64_t sequence, const Bytes& summary, const Bytes& app_state)>;

  PbftReplica(net::NodeId id, const PbftConfig& config, net::SimNetwork* net);

  net::NodeId id() const { return id_; }
  uint64_t view() const { return view_; }
  uint64_t num_executed() const { return num_executed_; }
  uint64_t last_executed() const { return last_executed_; }
  bool IsPrimary() const { return view_ % config_.num_replicas == id_; }
  bool crashed() const { return crashed_; }

  /// Stable-checkpoint observables (0 / empty before the first one). The
  /// certificate is exactly the payload of a checkpoint message.
  uint64_t stable_checkpoint_seq() const { return stable_seq_; }
  const Bytes& stable_checkpoint_cert() const { return stable_cert_; }
  /// Message-log occupancy; bounded by checkpoint_interval + watermarks.
  size_t log_slots() const { return log_.size(); }
  /// Checkpoint seqs above the stable one that hold votes; bounded by the
  /// window HandleCheckpoint accepts votes in.
  size_t pending_checkpoints() const { return checkpoints_.size(); }
  bool HasSlot(uint64_t seq) const { return log_.count(seq) != 0; }

  /// The full state behind the stable certificate: [cert][application
  /// state as of it]. Empty before the first stable checkpoint. This is
  /// what state transfer ships and what Restart installs; its size does not
  /// grow with the executed history beyond the application state's.
  Bytes EncodeStableState() const;

  void SetCommitCallback(CommitCallback cb) { commit_cb_ = std::move(cb); }
  void SetFaultMode(PbftFaultMode mode) { fault_mode_ = mode; }
  void SetStateCallbacks(StateSummaryFn summary, StateEncodeFn encode,
                         StateInstallFn install) {
    state_summary_ = std::move(summary);
    state_encode_ = std::move(encode);
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

  /// Restarts through the recovery path: installs `stable_state` (an
  /// EncodeStableState blob saved durably before the crash; empty = cold
  /// start), then requests state transfer from peers to cover the
  /// executions past it.
  void Restart(const Bytes& stable_state);

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
  void RecordExecution(const Bytes& digest);
  bool InstallStableState(const Bytes& blob);
  void MaybeCreateCheckpoint();
  void MaybeStabilize(uint64_t seq);
  void CollectGarbage();
  uint64_t VouchedCheckpointSeq() const;
  bool LagsFullInterval() const;
  void RequestStateTransfer();
  void TryInstallState();
  void ExecuteCertifiedSuffix();
  void ArmRequestTimer(const Bytes& digest);
  /// True when some slot past the execution point holds 2f+1 matching
  /// commits: the cluster committed it, so a stalled request means this
  /// replica is behind, not that the primary failed.
  bool MissedCommittedSeq() const;
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
  StateSummaryFn state_summary_;
  StateEncodeFn state_encode_;
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
  /// A client request from arrival until this replica executes it;
  /// `proposed` keeps a primary from proposing a re-sent request twice, and
  /// `deferred` from queueing it twice in deferred_.
  struct PendingRequest {
    Bytes command;
    bool proposed = false;
    bool deferred = false;
  };
  /// Digests of the requests this primary received while its watermark
  /// window was full, in arrival order; drained after each execution.
  /// Cleared on view change, with every `deferred` flag: a replica that
  /// becomes primary re-proposes every pending request its log lacks.
  std::deque<Bytes> deferred_;
  Bytes exec_chain_;  // Running hash over executed digests, in order.
  std::map<Bytes, bool> pending_timers_;  // digest -> armed.
  std::map<Bytes, PendingRequest> pending_requests_;  // By digest.
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
    Bytes own_cert;  ///< Our certificate at this seq; empty until produced.
    /// Voter -> its certificate at this seq; one vote per voter (the
    /// first), so a faulty peer cannot grow it.
    std::map<net::NodeId, Bytes> votes;
  };
  /// A peer's reply to our fetch-state request, parsed.
  struct StateResponse {
    uint64_t view = 0;
    Bytes cert;   ///< Certificate of the shipped stable state (may be empty).
    Bytes state;  ///< EncodeStableState blob (may be empty).
    std::map<uint64_t, Bytes> suffix;  // seq -> command (executed).
  };

  std::map<uint64_t, PendingCheckpoint> checkpoints_;
  uint64_t stable_seq_ = 0;
  Bytes stable_cert_;
  /// Highest checkpoint seq each replica has sent us (indexed by id). Only
  /// a seq that f+1 of them reached counts as progress (no faulty replica
  /// alone can claim it), so these feed the fetch trigger.
  std::vector<uint64_t> peer_checkpoint_seq_;
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
