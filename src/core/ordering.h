#ifndef PREVER_CORE_ORDERING_H_
#define PREVER_CORE_ORDERING_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/serial.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "ledger/ledger_db.h"
#include "net/sim_net.h"
#include "obs/registry.h"
#include "obs/tracing.h"

namespace prever::core {

/// Knobs of the pipelined group-commit window used by the consensus-backed
/// ordering services (see DESIGN.md "Pipelined ordering"). An open batch is
/// closed when it holds `max_batch` payloads or `max_delay` sim-time after
/// its first payload, whichever comes first; up to `max_inflight` closed
/// batches run consensus concurrently, and `max_inflight` is also the width
/// of each replica's BatchWindow.
struct OrderingPipelineConfig {
  size_t max_batch = 64;
  SimTime max_delay = 2 * kMillisecond;
  size_t max_inflight = 4;
};

/// Flush gives up (Unavailable) after this much sim-time without full
/// commitment — liveness bugs surface as errors instead of hangs.
inline constexpr SimTime kFlushTimeout = 60 * kSecond;
/// Flush re-submits not-yet-committed batches at this period, recovering
/// envelopes lost to crashes, drops, or leader changes (the BatchWindow
/// makes re-submission idempotent).
inline constexpr SimTime kRetryInterval = 500 * kMillisecond;

/// Ledger timestamps for batch envelopes encode (consensus position,
/// intra-batch index) so they are deterministic across replicas and
/// collision-free: the low `kBatchStampIndexBits` bits hold the index, the
/// rest the position. 2^24 bounds the batch size; 40 bits remain for
/// consensus positions (~10^12 instances).
inline constexpr uint32_t kBatchStampIndexBits = 24;
inline constexpr size_t kMaxOrderingBatch = size_t{1} << kBatchStampIndexBits;

inline constexpr SimTime BatchEntryStamp(uint64_t position, uint32_t index) {
  return (position << kBatchStampIndexBits) | index;
}

/// How verified updates reach the immutable store (§4 RC4): a centralized
/// ledger database for the single-manager setting, or consensus-replicated
/// ledgers (PBFT for mutually distrustful managers, Raft as the §6 CFT
/// comparator). Engines order through this interface and stay agnostic.
class OrderingService {
 public:
  /// Completion handle from SubmitAsync: the payload's zero-based submission
  /// index. A ticket is committed once CommittedCount() exceeds it (after a
  /// successful Flush, every issued ticket is).
  using Ticket = uint64_t;

  virtual ~OrderingService() = default;

  /// Durably appends `payload`; returns only after the payload is committed
  /// on a quorum (consensus impls drive the simulated network to completion).
  virtual Status Append(const Bytes& payload, SimTime timestamp) = 0;

  /// Asynchronous window: enqueues `payload` for ordering and returns
  /// immediately with its ticket. Commitment happens as the caller (or a
  /// later blocking call) drives the network; call Flush() to wait for every
  /// outstanding ticket. The base implementation degrades to the blocking
  /// Append for services without a pipeline.
  virtual Result<Ticket> SubmitAsync(const Bytes& payload, SimTime timestamp);

  /// Blocks until every ticket issued so far is committed.
  virtual Status Flush();

  /// A ledger reflecting the committed order (for consensus impls, the
  /// first correct replica's ledger).
  virtual const ledger::LedgerDb& Ledger() const = 0;

  /// Committed entries so far.
  virtual uint64_t CommittedCount() const = 0;
};

/// Every engine's one commit step (DESIGN.md "Commit order"): appends
/// `payload`, then runs `apply`, the engine's only local state change, iff
/// the payload is known ledgered (the append succeeded, or a settling Flush
/// succeeded and the ledger holds it). Returns Append's status (Internal if
/// `apply` fails); sets `*unledgered` when the payload is known off ledger.
Status OrderThenApply(OrderingService& ordering, const Bytes& payload,
                      SimTime timestamp, const std::function<Status()>& apply,
                      bool* unledgered = nullptr);

/// Exactly-once filter over the pipeline's monotone batch ids, one per
/// replica (DESIGN.md "One apply tail"): a low-water mark plus a bitmap of
/// the `width` ids from it. A new id past the bitmap slides the mark up to
/// it. That never passes an unapplied id, because the pipeline submits
/// batch b only once replica 0 holds batch b - width.
class BatchWindow {
 public:
  explicit BatchWindow(size_t width = 1) : bits_(std::max<size_t>(width, 1)) {}

  /// True when `id` was admitted, or lies below the low-water mark.
  bool Holds(uint64_t id) const {
    return id < low_ || (id - low_ < bits_.size() && bits_[id % bits_.size()]);
  }
  /// Records `id`; false, with nothing changed, when it is already held.
  bool Admit(uint64_t id);

  /// Fixed-size encoding: [u64 low-water mark][bytes packed bitmap].
  void Encode(BinaryWriter& w) const;
  static Result<BatchWindow> Decode(BinaryReader& r, size_t width);

  bool operator==(const BatchWindow& o) const {
    return low_ == o.low_ && bits_ == o.bits_;
  }

 private:
  uint64_t low_ = 0;
  std::vector<bool> bits_;  ///< Slot id % width for each id from low_ on.
};

/// Adaptive batcher + in-flight window shared by the consensus-backed
/// ordering services. Payloads accumulate in an open batch; closed batches
/// are sealed into batch envelopes ([u64 batch id][u32 count][payloads]) and
/// handed to `submit` while fewer than `max_inflight` envelopes await
/// commitment. The owner reports commit progress via OnProgress, which
/// retires committed envelopes in submission order (recording per-payload
/// commit latency) and submits queued ones — so the window refills from
/// inside the event loop, not just from Flush.
class GroupCommitPipeline {
 public:
  /// `submit` hands one sealed envelope to consensus; a failure (e.g. no
  /// Raft leader) leaves the batch queued for a later retry.
  using SubmitFn = std::function<Status(const Bytes& envelope)>;

  GroupCommitPipeline(net::SimNetwork* net, OrderingPipelineConfig config,
                      const std::string& proto_label, SubmitFn submit);

  /// Adds one payload to the open batch; may seal and submit. Returns the
  /// payload's ticket.
  OrderingService::Ticket Enqueue(const Bytes& payload);

  /// Seals the open batch (no-op when empty) and submits as the window
  /// allows.
  void CloseOpenBatch();

  /// Commit progress: retires envelopes from the front while `applied`,
  /// replica 0's window, holds their ids, then refills the window.
  void OnProgress(const BatchWindow& applied);

  /// Re-submits every submitted-but-uncommitted envelope (fault recovery;
  /// the replicas' BatchWindows dedup), then refills the window.
  void ResubmitUncommitted();

  /// Tickets issued so far == payloads a full Flush must see committed.
  uint64_t TicketCount() const { return next_ticket_; }

  const OrderingPipelineConfig& config() const { return config_; }

  /// Causal context of an in-flight batch (null if the batch is
  /// unknown, already retired, or its trace unsampled). The owner's commit
  /// callback uses this to parent the replica-0 ledger-append span.
  obs::TraceContext ContextForBatch(uint64_t batch_id) const;

 private:
  struct Batch {
    Bytes envelope;
    uint64_t batch_id = 0;    ///< Envelope id (first u64 of the encoding).
    std::vector<SimTime> submit_times;  ///< Enqueue sim-time per payload.
    /// Consensus span for the envelope: child of the first sampled
    /// payload's queue-wait span, opened at seal, closed at retirement.
    obs::TraceContext trace;
  };

  void SealOpen();
  void PumpSubmissions();

  net::SimNetwork* net_;
  OrderingPipelineConfig config_;
  SubmitFn submit_;
  uint64_t next_ticket_ = 0;
  uint64_t batch_counter_ = 0;  // Makes identical batches distinct commands.
  uint64_t open_epoch_ = 0;     // Invalidates stale max_delay close timers.
  std::vector<Bytes> open_payloads_;
  std::vector<SimTime> open_times_;
  std::vector<obs::TraceContext> open_traces_;  // Queue-wait span per payload.
  std::deque<Batch> queued_;    // Sealed, awaiting a window slot.
  std::deque<Batch> inflight_;  // Submitted, awaiting commitment.
  obs::Histogram* batch_size_;      // Payloads per sealed envelope.
  obs::Histogram* inflight_depth_;  // Window occupancy after each submit.
  obs::Histogram* commit_latency_us_;  // Sim-time enqueue -> commit.
};

/// Centralized ledger database ordering (Amazon QLDB / LedgerDB style).
class CentralizedOrdering : public OrderingService {
 public:
  Status Append(const Bytes& payload, SimTime timestamp) override;
  const ledger::LedgerDb& Ledger() const override { return ledger_; }
  uint64_t CommittedCount() const override { return ledger_.size(); }

 private:
  ledger::LedgerDb ledger_;
};

/// The one apply tail shared by the consensus-backed ordering services:
/// owns the simulated network, one ledger per replica, the group-commit
/// pipeline and, with a data directory, each replica's durable record.
/// Protocols feed every committed command to ApplyEnvelope, which unpacks
/// the batch envelope into one stamped ledger entry per payload unless the
/// replica's BatchWindow already holds its batch id. Both protocols are
/// thus plain total-order broadcasts: a batch committed at two positions
/// (a re-submission, a cross-view re-proposal) is applied once. A subclass
/// contributes its cluster (SubmitEnvelope) and its side of a checkpoint
/// and a restart.
///
/// Durability (DESIGN.md "Crash recovery & state transfer"): with a
/// non-empty `data_dir`, replica i keeps `<data_dir>/r<i>/journal.wal`, a
/// recovery::CommitJournal holding one event per commit, and
/// `<data_dir>/r<i>/ckpt/`, a recovery::CheckpointStore written every
/// `checkpoint_interval` consensus positions and whenever a consensus-level
/// install (Raft InstallSnapshot, PBFT state transfer) replaces the
/// replica's state; it holds [window][bytes protocol blob]. RestartReplica
/// rebuilds a replica from exactly that record. With an empty `data_dir`
/// the ordering writes no file, and a restarted replica starts empty and
/// catches up through consensus alone.
class ReplicatedOrdering : public OrderingService {
 public:
  ~ReplicatedOrdering() override;
  // The pipeline's submit callback holds `this`.
  ReplicatedOrdering(const ReplicatedOrdering&) = delete;
  ReplicatedOrdering& operator=(const ReplicatedOrdering&) = delete;

  /// Blocking stop-and-wait: SubmitAsync + Flush.
  Status Append(const Bytes& payload, SimTime timestamp) override {
    PREVER_RETURN_IF_ERROR(SubmitAsync(payload, timestamp).status());
    return Flush();
  }
  /// The timestamp is unused: the consensus position stamps commits.
  Result<Ticket> SubmitAsync(const Bytes& payload, SimTime) override {
    return pipeline_->Enqueue(payload);
  }
  /// Steps the simulated network until replica 0 has committed every issued
  /// ticket, re-submitting uncommitted envelopes every kRetryInterval (the
  /// BatchWindow keeps that idempotent); Unavailable after kFlushTimeout.
  /// Fails with the error when the data directory could not be set up.
  Status Flush() override;

  const ledger::LedgerDb& Ledger() const override { return ledgers_[0]; }
  uint64_t CommittedCount() const override { return committed_; }

  net::SimNetwork& network() { return *net_; }
  const net::SimNetwork& network() const { return *net_; }
  const ledger::LedgerDb& ReplicaLedger(size_t i) const { return ledgers_[i]; }
  size_t num_replicas() const { return ledgers_.size(); }

  /// Crash-stops replica i: the network drops its traffic, its protocol
  /// replica loses its volatile state and its journal closes. Its files
  /// stay as they are until RestartReplica.
  Status CrashReplica(size_t i);
  /// Restarts a crashed replica from its durable record: loads the newest
  /// intact checkpoint (corrupt ones are quarantined), replays the journal
  /// suffix past it, rewrites the journal to the events replayed, records
  /// the time taken in `prever_recovery_time_us`, and re-enters consensus
  /// (RaftReplica::Recover, PbftReplica::Restart), which re-delivers what
  /// the record lacks.
  Status RestartReplica(size_t i);

 protected:
  /// What RestartReplica rebuilt from one replica's durable record.
  struct DurableState {
    explicit DurableState(size_t window_width) : window(window_width) {}
    ledger::LedgerDb ledger;
    BatchWindow window;  ///< The checkpoint's, plus the journal's batch ids.
    uint64_t floor = 0;    ///< Highest consensus position the ledger covers.
    Bytes protocol_state;  ///< The loaded checkpoint's CheckpointState blob.
  };

  /// `proto_label` tags pipeline histograms; `proto_name` prefixes errors.
  /// `checkpoint_interval` (0 is read as 1) paces durable checkpoints.
  ReplicatedOrdering(size_t num_replicas, net::SimNetConfig net_config,
                     OrderingPipelineConfig pipeline,
                     const std::string& proto_label, const char* proto_name,
                     uint64_t checkpoint_interval, const std::string& data_dir);

  /// Hands one sealed envelope to the protocol's cluster.
  virtual Status SubmitEnvelope(const Bytes& envelope) = 0;
  /// The protocol's blob in every durable checkpoint of `replica`.
  virtual Bytes CheckpointState(size_t replica) const = 0;
  /// Runs once a checkpoint holding `state` is durable.
  virtual void OnCheckpointSaved(size_t /*replica*/, const Bytes& /*state*/) {}
  /// Crash-stops the protocol replica.
  virtual void CrashProtocol(size_t replica) = 0;
  /// Installs `state` on `replica` and re-enters consensus.
  virtual Status Rejoin(size_t replica, DurableState state) = 0;

  /// Appends one committed envelope to `replica`'s ledger, entry i stamped
  /// BatchEntryStamp(position, i) so replicas stay digest-identical, if
  /// MarkApplied admits its batch id. Replica 0 is the commit counter: its
  /// append is traced under the batch's consensus span and advances the
  /// pipeline. With a data directory the commit is journaled, then
  /// checkpointed on cadence.
  void ApplyEnvelope(size_t replica, uint64_t position, const Bytes& envelope);

  /// Replaces replica i's ledger and window, keeping replica 0's commit
  /// counter in step.
  Status RestoreReplica(size_t i, ledger::LedgerDb ledger, BatchWindow window);

  const BatchWindow& Window(size_t i) const { return windows_[i]; }
  /// Every replica's window width: the pipeline's `max_inflight`.
  size_t window_width() const { return pipeline_->config().max_inflight; }

  /// Makes a consensus-level install on `replica` durable: a checkpoint at
  /// `floor` keeps the on-disk chain contiguous where the journal has a
  /// hole. No-op in memory, while the replica is down, or when the newest
  /// checkpoint already covers `floor`.
  void PersistInstalledState(size_t replica, uint64_t floor);

  bool durable() const { return !files_.empty(); }
  uint64_t checkpoint_interval() const { return checkpoint_interval_; }

 private:
  struct ReplicaFiles;  // One replica's journal and checkpoint store.

  /// The one dedup rule: false when `replica`'s window already holds it.
  bool MarkApplied(size_t replica, uint64_t batch_id) {
    return windows_[replica].Admit(batch_id);
  }
  /// Journals one commit event and checkpoints on cadence.
  void Persist(size_t replica, uint64_t position, uint64_t batch_id,
               size_t appended);
  void SaveCheckpoint(size_t replica, uint64_t position);
  Result<DurableState> LoadDurable(size_t replica);

  std::unique_ptr<net::SimNetwork> net_;
  std::vector<ledger::LedgerDb> ledgers_;
  uint64_t committed_ = 0;
  const char* proto_name_;
  uint64_t checkpoint_interval_;
  std::vector<std::unique_ptr<ReplicaFiles>> files_;  // Empty in memory.
  Status files_status_;  // Why the data directory could not be set up.
  std::unique_ptr<GroupCommitPipeline> pipeline_;
  std::vector<BatchWindow> windows_;  // One per replica.
};

/// PBFT-replicated ordering for mutually distrustful managers. One consensus
/// instance carries a whole batch envelope (the StreamChain/FastFabric
/// batching lever §4 alludes to for Fabric's overhead), and up to
/// `max_inflight` instances run the three phases at once. Every replica
/// runs stable checkpoints and state transfer (DESIGN.md "Crash recovery &
/// state transfer").
class PbftOrdering : public ReplicatedOrdering {
 public:
  /// `proto_label` tags this cluster's pipeline histograms in the default
  /// registry (sharded deployments use "pbft-sharded").
  /// `checkpoint_interval` is the number of executions between stable
  /// checkpoints, and between durable ones; every value checkpoints (0 is
  /// read as 1). Small values reach message-log GC within a short run.
  /// `data_dir` as in ReplicatedOrdering; empty keeps everything in memory.
  PbftOrdering(size_t num_replicas, net::SimNetConfig net_config,
               const std::string& proto_label = "pbft",
               OrderingPipelineConfig pipeline = OrderingPipelineConfig(),
               uint64_t checkpoint_interval =
                   consensus::kDefaultCheckpointInterval,
               const std::string& data_dir = "");

  consensus::PbftCluster& cluster() { return *cluster_; }

  /// Fixed-size summary of replica i's state, embedded in its checkpoint
  /// certificates: [window][u64 ledger size][ledger Merkle root].
  Bytes StateSummary(size_t i) const;
  /// Replica i's state as of an earlier StateSummary: the summary's window
  /// and the ledger prefix of the summarized size ([window][u64 n]
  /// [entries...]), the prefix checked against the summary's root with
  /// LedgerDb::DigestAt. Empty when it does not match.
  Bytes EncodeStateAt(size_t i, const Bytes& summary) const;
  /// Installs an EncodeStateAt blob on replica i if it rebuilds to exactly
  /// `summary` (window, ledger size, root); false with nothing changed
  /// otherwise.
  bool InstallState(size_t i, const Bytes& summary, const Bytes& state);

 protected:
  Status SubmitEnvelope(const Bytes& envelope) override {
    cluster_->Submit(envelope);
    return Status::Ok();
  }
  /// The full state behind the replica's stable certificate.
  Bytes CheckpointState(size_t replica) const override {
    return cluster_->replica(replica).EncodeStableState();
  }
  void CrashProtocol(size_t replica) override {
    cluster_->replica(replica).Crash();
  }
  /// PbftReplica::Restart installs the saved stable state and fetches peer
  /// state; the fuller journal-replayed ledger and its window then go on
  /// top, so re-delivered commits the journal holds are not appended again.
  Status Rejoin(size_t replica, DurableState state) override;

 private:
  std::unique_ptr<consensus::PbftCluster> cluster_;
};

/// SharPer/Qanaat-style sharded ordering (§4 RC4: "Qanaat further provides
/// scalability by partitioning data into data shards"): k independent PBFT
/// clusters, each ordering the updates routed to it by key. Shards progress
/// in parallel (independent simulated networks), so aggregate throughput
/// scales with the shard count for single-shard updates. Cross-shard
/// transactions are out of scope (they need SharPer's cross-cluster
/// protocol; see DESIGN.md §6). Not an OrderingService: it has no single
/// ledger, so every call names its routing key.
class ShardedPbftOrdering {
 public:
  ShardedPbftOrdering(size_t num_shards, size_t replicas_per_shard,
                      net::SimNetConfig net_config,
                      OrderingPipelineConfig pipeline =
                          OrderingPipelineConfig());

  /// Routes by FNV hash of `routing_key`.
  Status AppendRouted(const std::string& routing_key, const Bytes& payload,
                      SimTime timestamp);

  /// Async window across shards: routes like AppendRouted but through the
  /// target shard's pipeline. Flush drains every shard.
  Result<OrderingService::Ticket> SubmitRoutedAsync(
      const std::string& routing_key, const Bytes& payload, SimTime timestamp);
  Status Flush();

  /// Committed entries summed over the shards.
  uint64_t CommittedCount() const;

  size_t num_shards() const { return shards_.size(); }
  PbftOrdering& Shard(size_t i) { return *shards_[i]; }

  /// The simulated time the slowest shard has reached — the wall-clock
  /// analogue for aggregate-throughput accounting.
  SimTime MaxShardTime() const;

 private:
  size_t ShardOf(const std::string& routing_key) const;

  std::vector<std::unique_ptr<PbftOrdering>> shards_;
  uint64_t next_ticket_ = 0;
};

/// Raft-replicated ordering (crash-fault baseline).
class RaftOrdering : public ReplicatedOrdering {
 public:
  /// With a `data_dir`, every durable checkpoint also compacts the
  /// replica's Raft log below it (RaftReplica::CompactTo); in memory the
  /// log is never compacted.
  RaftOrdering(size_t num_replicas, net::SimNetConfig net_config,
               OrderingPipelineConfig pipeline = OrderingPipelineConfig(),
               uint64_t checkpoint_interval =
                   consensus::kDefaultCheckpointInterval,
               const std::string& data_dir = "");

  consensus::RaftCluster& cluster() { return *cluster_; }

 protected:
  Status SubmitEnvelope(const Bytes& envelope) override {
    return cluster_->Submit(envelope);
  }
  Bytes CheckpointState(size_t replica) const override {
    return EncodeReplicaState(replica);
  }
  /// Compacts the Raft log below the checkpoint; `state` becomes the
  /// snapshot a lagging follower installs.
  void OnCheckpointSaved(size_t replica, const Bytes& state) override {
    (void)cluster_->replica(replica).CompactTo(applied_floor_[replica], state);
  }
  void CrashProtocol(size_t replica) override {
    cluster_->replica(replica).Crash();
  }
  /// Restores the durable state, then RaftReplica::Recover re-delivers the
  /// committed suffix above its floor (the window absorbs the rest).
  Status Rejoin(size_t replica, DurableState state) override;

 private:
  /// Self-contained replica state for Raft snapshots ([u64 applied floor]
  /// [window][u64 n][entries...]): the checkpoint blob, handed to CompactTo
  /// as the snapshot and installed on followers via InstallSnapshot.
  Bytes EncodeReplicaState(size_t i) const;
  /// Installs an EncodeReplicaState blob.
  Status RestoreReplicaState(size_t i, const Bytes& blob);

  std::unique_ptr<consensus::RaftCluster> cluster_;
  /// Highest log index each replica has had delivered (ledger-reflected).
  std::vector<uint64_t> applied_floor_;
};

}  // namespace prever::core

#endif  // PREVER_CORE_ORDERING_H_
