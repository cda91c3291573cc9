#include "core/ordering.h"

#include <algorithm>
#include <chrono>

#include "common/serial.h"
#include "mutate/mutation.h"
#include "recovery/checkpoint.h"
#include "recovery/journal.h"

namespace prever::core {

namespace {

obs::Histogram& RecoveryTimeHistogram() {
  static obs::Histogram* h =
      obs::Registry::Default().GetHistogram("prever_recovery_time_us");
  return *h;
}

/// Canonical encodings of the `n` entries a commit event just appended.
std::vector<Bytes> EncodeLedgerTail(const ledger::LedgerDb& ledger, size_t n) {
  std::vector<Bytes> out;
  out.reserve(n);
  for (uint64_t seq = ledger.size() - n; seq < ledger.size(); ++seq) {
    auto entry = ledger.GetEntry(seq);
    if (entry.ok()) out.push_back(entry->Encode());
  }
  return out;
}

/// The ledger part of both replica-state blobs, the first `n` entries:
/// [u64 n][entries...].
void WriteLedgerEntries(const ledger::LedgerDb& ledger, uint64_t n,
                        BinaryWriter& w) {
  w.WriteU64(n);
  for (uint64_t k = 0; k < n; ++k) w.WriteBytes(ledger.GetEntry(k)->Encode());
}

/// PbftOrdering's state summary, decoded.
struct PbftSummary {
  BatchWindow window;
  ledger::LedgerDigest ledger;
};

Result<PbftSummary> DecodePbftSummary(const Bytes& summary, size_t width) {
  BinaryReader r(summary);
  PbftSummary out;
  PREVER_ASSIGN_OR_RETURN(out.window, BatchWindow::Decode(r, width));
  PREVER_ASSIGN_OR_RETURN(out.ledger.size, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(out.ledger.root, r.ReadBytes());
  return out;
}

Result<ledger::LedgerDb> ReadLedgerEntries(BinaryReader& r) {
  PREVER_ASSIGN_OR_RETURN(uint64_t n, r.ReadU64());
  std::vector<Bytes> records;  // No reserve(n): n is untrusted input.
  for (uint64_t k = 0; k < n; ++k) {
    PREVER_ASSIGN_OR_RETURN(Bytes e, r.ReadBytes());
    records.push_back(std::move(e));
  }
  return ledger::LedgerDb::FromRecords(records);
}

}  // namespace

// ---------------------------------------------------------- OrderingService

Result<OrderingService::Ticket> OrderingService::SubmitAsync(
    const Bytes& payload, SimTime timestamp) {
  // Degraded mode for services without a pipeline: commit synchronously.
  PREVER_RETURN_IF_ERROR(Append(payload, timestamp));
  return CommittedCount() - 1;
}

Status OrderingService::Flush() { return Status::Ok(); }

Status OrderThenApply(OrderingService& ordering, const Bytes& payload,
                      SimTime timestamp, const std::function<Status()>& apply,
                      bool* unledgered) {
  const uint64_t from = ordering.Ledger().size();
  const Status appended = ordering.Append(payload, timestamp);
  if (!appended.ok()) {
    // In doubt: a pipeline that gave up waiting may still commit it. Once a
    // Flush returns OK nothing is outstanding, so the ledger decides.
    if (!ordering.Flush().ok()) return appended;
    bool ledgered = false;
    for (uint64_t seq = from; seq < ordering.Ledger().size(); ++seq) {
      ledgered |= ordering.Ledger().GetEntry(seq)->payload == payload;
    }
    if (!PREVER_MUTATION(COMMIT_APPLY_ON_UNSETTLED, ledgered, true)) {
      if (unledgered != nullptr) *unledgered = true;
      return appended;
    }
  }
  const Status applied = apply();
  return applied.ok() ? appended
                      : Status::Internal("ordered payload failed to apply: " +
                                         applied.ToString());
}

// -------------------------------------------------------------- BatchWindow

bool BatchWindow::Admit(uint64_t id) {
  const uint64_t width = bits_.size();
  if (id < low_) return false;
  if (id - low_ >= width) {
    // Slide the mark to id - width + 1: the ids entering the bitmap reuse
    // the slots of the ids leaving it.
    for (uint64_t k = std::max(low_ + width, id + 1 - width); k <= id; ++k) {
      bits_[k % width] = false;
    }
    low_ = id + 1 - width;
  }
  const bool held = bits_[id % width];
  bits_[id % width] = true;
  return !PREVER_MUTATION(ORDERING_WINDOW_DUPLICATE_ACCEPT, held, false);
}

void BatchWindow::Encode(BinaryWriter& w) const {
  Bytes packed((bits_.size() + 7) / 8, 0);
  for (size_t k = 0; k < bits_.size(); ++k) packed[k / 8] |= bits_[k] << k % 8;
  w.WriteU64(low_);
  w.WriteBytes(packed);
}

Result<BatchWindow> BatchWindow::Decode(BinaryReader& r, size_t width) {
  BatchWindow out(width);
  PREVER_ASSIGN_OR_RETURN(out.low_, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(Bytes packed, r.ReadBytes());
  if (packed.size() != (out.bits_.size() + 7) / 8) {
    return Status::InvalidArgument("batch window of the wrong width");
  }
  for (size_t k = 0; k < out.bits_.size(); ++k) {
    out.bits_[k] = (packed[k / 8] >> k % 8) & 1;
  }
  return out;
}

// ------------------------------------------------------ GroupCommitPipeline

GroupCommitPipeline::GroupCommitPipeline(net::SimNetwork* net,
                                         OrderingPipelineConfig config,
                                         const std::string& proto_label,
                                         SubmitFn submit)
    : net_(net),
      config_(config),
      submit_(std::move(submit)),
      batch_size_(obs::Registry::Default().GetHistogram(
          "prever_ordering_batch_size", {{"proto", proto_label}})),
      inflight_depth_(obs::Registry::Default().GetHistogram(
          "prever_ordering_inflight_depth", {{"proto", proto_label}})),
      commit_latency_us_(obs::Registry::Default().GetHistogram(
          "prever_consensus_commit_latency_us", {{"proto", proto_label}})) {
  if (config_.max_batch == 0) config_.max_batch = 1;
  if (config_.max_batch > kMaxOrderingBatch - 1) {
    config_.max_batch = kMaxOrderingBatch - 1;
  }
  if (config_.max_inflight == 0) config_.max_inflight = 1;
}

OrderingService::Ticket GroupCommitPipeline::Enqueue(const Bytes& payload) {
  if (open_payloads_.empty() && config_.max_batch > 1 &&
      config_.max_delay > 0) {
    // First payload of a new batch: arm the adaptive-close timer. The epoch
    // guard voids it if the batch seals early (size limit or Flush).
    uint64_t epoch = open_epoch_;
    net_->ScheduleAfter(config_.max_delay, [this, epoch] {
      if (epoch != open_epoch_) return;
      SealOpen();
      PumpSubmissions();
    });
  }
  open_payloads_.push_back(payload);
  open_times_.push_back(net_->Now());
  // Queue-wait span: child of the caller's context (the engine's ledger
  // phase) or a fresh root for raw ordering payloads; closed at batch seal.
  obs::Tracer::SetThreadSimClock(&net_->clock());
  open_traces_.push_back(
      obs::Tracer::Get().BeginSpan(obs::TraceStage::kQueueWait));
  OrderingService::Ticket ticket = next_ticket_++;
  if (open_payloads_.size() >= config_.max_batch) SealOpen();
  PumpSubmissions();
  return ticket;
}

void GroupCommitPipeline::SealOpen() {
  ++open_epoch_;
  if (open_payloads_.empty()) return;
  const size_t size = open_payloads_.size();
  Batch batch;
  batch.batch_id = batch_counter_++;
  BinaryWriter w;
  w.WriteU64(batch.batch_id);
  w.WriteU32(static_cast<uint32_t>(size));
  for (const Bytes& p : open_payloads_) w.WriteBytes(p);
  batch.envelope = w.Take();
  batch.submit_times = std::move(open_times_);
  // Close every payload's queue-wait span; the envelope's consensus span
  // becomes a child of the first sampled one, and the other sampled
  // payloads link to it with a batch-join instant so a per-payload tree
  // still reaches the consensus/durability stages.
  obs::Tracer& tracer = obs::Tracer::Get();
  for (const obs::TraceContext& t : open_traces_) {
    tracer.EndSpan(t, obs::TraceStage::kQueueWait, batch.batch_id);
  }
  for (const obs::TraceContext& t : open_traces_) {
    if (!t.sampled()) continue;
    if (!batch.trace.sampled()) {
      batch.trace = tracer.BeginSpan(obs::TraceStage::kConsensus, t,
                                     batch.batch_id);
      tracer.Instant(batch.trace, obs::TraceStage::kBatchSeal, size);
    } else {
      tracer.Instant(t, obs::TraceStage::kBatchJoin, batch.trace.span_id);
    }
  }
  open_payloads_.clear();
  open_times_.clear();
  open_traces_.clear();
  batch_size_->Record(size);
  queued_.push_back(std::move(batch));
}

void GroupCommitPipeline::PumpSubmissions() {
  while (!queued_.empty() && inflight_.size() < config_.max_inflight) {
    // Consensus submission runs under the batch's context so the protocol
    // messages it synchronously emits carry it across the wire.
    obs::ScopedTraceContext scope(queued_.front().trace);
    if (!submit_(queued_.front().envelope).ok()) return;  // Retry later.
    inflight_.push_back(std::move(queued_.front()));
    queued_.pop_front();
    inflight_depth_->Record(inflight_.size());
  }
}

void GroupCommitPipeline::CloseOpenBatch() {
  SealOpen();
  PumpSubmissions();
}

void GroupCommitPipeline::OnProgress(const BatchWindow& applied) {
  SimTime now = net_->Now();
  // Retire by id, never by payload count: retiring a head that a later batch
  // overtook would let the windows slide past the head before it commits.
  while (!inflight_.empty() &&
         applied.Holds(PREVER_MUTATION(PIPELINE_RETIRE_UNCOMMITTED,
                                       inflight_.front().batch_id,
                                       inflight_.back().batch_id))) {
    for (SimTime t : inflight_.front().submit_times) {
      commit_latency_us_->Record(now - t);
    }
    obs::Tracer::Get().EndSpan(inflight_.front().trace,
                               obs::TraceStage::kConsensus,
                               inflight_.front().batch_id);
    inflight_.pop_front();
  }
  PumpSubmissions();
}

void GroupCommitPipeline::ResubmitUncommitted() {
  for (const Batch& batch : inflight_) {
    obs::ScopedTraceContext scope(batch.trace);
    (void)submit_(batch.envelope);
  }
  PumpSubmissions();
}

obs::TraceContext GroupCommitPipeline::ContextForBatch(
    uint64_t batch_id) const {
  for (const Batch& batch : inflight_) {
    if (batch.batch_id == batch_id) return batch.trace;
  }
  return {};
}

// ------------------------------------------------------ CentralizedOrdering

Status CentralizedOrdering::Append(const Bytes& payload, SimTime timestamp) {
  ledger_.Append(payload, timestamp);
  return Status::Ok();
}

// ------------------------------------------------------ ReplicatedOrdering

/// One replica's durable record under `<data_dir>/r<i>/`.
struct ReplicatedOrdering::ReplicaFiles {
  explicit ReplicaFiles(const std::string& dir)
      : store(dir + "/ckpt"), journal_path(dir + "/journal.wal") {}

  recovery::CheckpointStore store;
  recovery::CommitJournal journal;  ///< Closed while the replica is down.
  std::string journal_path;
  /// Positions of the newest and second-newest checkpoints. The journal is
  /// truncated only below the second-newest, so a corrupt newest one still
  /// recovers from the one before plus a longer replay.
  uint64_t last_checkpoint = 0;
  uint64_t prev_checkpoint = 0;
};

ReplicatedOrdering::ReplicatedOrdering(
    size_t num_replicas, net::SimNetConfig net_config,
    OrderingPipelineConfig pipeline, const std::string& proto_label,
    const char* proto_name, uint64_t checkpoint_interval,
    const std::string& data_dir)
    : net_(std::make_unique<net::SimNetwork>(net_config)),
      ledgers_(num_replicas),
      proto_name_(proto_name),
      checkpoint_interval_(std::max<uint64_t>(checkpoint_interval, 1)),
      pipeline_(std::make_unique<GroupCommitPipeline>(
          net_.get(), pipeline, proto_label,
          [this](const Bytes& env) { return SubmitEnvelope(env); })),
      windows_(num_replicas, BatchWindow(window_width())) {
  if (data_dir.empty()) return;
  for (size_t i = 0; i < num_replicas; ++i) {
    files_.push_back(std::make_unique<ReplicaFiles>(data_dir + "/r" +
                                                    std::to_string(i)));
    ReplicaFiles& f = *files_.back();
    if (files_status_.ok()) files_status_ = f.store.Init();
    if (files_status_.ok()) files_status_ = f.journal.Open(f.journal_path);
  }
}

ReplicatedOrdering::~ReplicatedOrdering() = default;

void ReplicatedOrdering::ApplyEnvelope(size_t replica, uint64_t position,
                                       const Bytes& envelope) {
  BinaryReader r(envelope);
  auto batch_id = r.ReadU64();
  auto count = r.ReadU32();
  if (!batch_id.ok() || !count.ok()) return;  // Not an envelope: skip.
  // Decode the whole envelope before touching the ledger or the window: a
  // malformed one appends nothing.
  std::vector<Bytes> payloads;
  payloads.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto payload = r.ReadBytes();
    if (!payload.ok()) return;
    payloads.push_back(std::move(*payload));
  }
  if (!MarkApplied(replica, *batch_id)) return;
  // Durability closure: the canonical replica's ledger append, parented to
  // the envelope's consensus span (other replicas stay untraced).
  obs::Tracer& tracer = obs::Tracer::Get();
  obs::TraceContext span = tracer.BeginChild(
      obs::TraceStage::kLedgerAppend,
      replica == 0 ? pipeline_->ContextForBatch(*batch_id)
                   : obs::TraceContext{},
      position);
  for (uint32_t i = 0; i < payloads.size(); ++i) {
    ledgers_[replica].Append(payloads[i], BatchEntryStamp(position, i));
  }
  tracer.EndSpan(span, obs::TraceStage::kLedgerAppend, payloads.size());
  if (replica == 0) {
    committed_ = ledgers_[0].size();
    pipeline_->OnProgress(windows_[0]);
  }
  // Last: a Raft checkpoint compacts the log that `envelope` lives in.
  if (durable()) Persist(replica, position, *batch_id, payloads.size());
}

void ReplicatedOrdering::Persist(size_t replica, uint64_t position,
                                 uint64_t batch_id, size_t appended) {
  ReplicaFiles& f = *files_[replica];
  if (!f.journal.is_open()) return;
  (void)f.journal.Append(
      {position, batch_id, EncodeLedgerTail(ledgers_[replica], appended)});
  if (position >= f.last_checkpoint + checkpoint_interval_) {
    SaveCheckpoint(replica, position);
  }
}

void ReplicatedOrdering::SaveCheckpoint(size_t replica, uint64_t position) {
  ReplicaFiles& f = *files_[replica];
  recovery::CheckpointContents contents;
  contents.ledger = &ledgers_[replica];
  contents.consensus_seq = position;
  const Bytes protocol_state = CheckpointState(replica);
  BinaryWriter w;
  windows_[replica].Encode(w);
  w.WriteBytes(protocol_state);
  contents.app_state = w.Take();
  if (!f.store.Save(contents).ok()) return;
  f.prev_checkpoint = f.last_checkpoint;
  f.last_checkpoint = position;
  f.store.GarbageCollect(2);
  OnCheckpointSaved(replica, protocol_state);
  (void)f.journal.TruncateBelow(f.prev_checkpoint);
}

void ReplicatedOrdering::PersistInstalledState(size_t replica,
                                               uint64_t floor) {
  if (!durable()) return;
  ReplicaFiles& f = *files_[replica];
  if (!f.journal.is_open() || floor <= f.last_checkpoint) return;
  SaveCheckpoint(replica, floor);
}

Status ReplicatedOrdering::RestoreReplica(size_t i, ledger::LedgerDb ledger,
                                          BatchWindow window) {
  if (i >= ledgers_.size()) return Status::InvalidArgument("bad replica");
  ledgers_[i] = std::move(ledger);
  windows_[i] = std::move(window);
  if (i == 0) committed_ = ledgers_[0].size();
  return Status::Ok();
}

Status ReplicatedOrdering::CrashReplica(size_t i) {
  if (i >= num_replicas()) return Status::InvalidArgument("bad replica");
  const auto node = static_cast<net::NodeId>(i);
  if (net_->IsCrashed(node)) {
    return Status::InvalidArgument("replica already crashed");
  }
  net_->CrashNode(node);
  CrashProtocol(i);
  if (durable()) files_[i]->journal.Close();
  return Status::Ok();
}

Status ReplicatedOrdering::RestartReplica(size_t i) {
  if (i >= num_replicas()) return Status::InvalidArgument("bad replica");
  const auto node = static_cast<net::NodeId>(i);
  if (!net_->IsCrashed(node)) {
    return Status::InvalidArgument("replica is not crashed");
  }
  const auto start = std::chrono::steady_clock::now();
  DurableState state(window_width());
  if (durable()) {
    PREVER_ASSIGN_OR_RETURN(state, LoadDurable(i));
  }
  RecoveryTimeHistogram().Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  net_->RestartNode(node);
  return Rejoin(i, std::move(state));
}

Result<ReplicatedOrdering::DurableState> ReplicatedOrdering::LoadDurable(
    size_t replica) {
  ReplicaFiles& f = *files_[replica];
  DurableState out(window_width());
  uint64_t checkpoint_seq = 0;
  auto checkpoint = f.store.LoadLatest();
  if (checkpoint.ok()) {
    out.ledger = std::move(checkpoint->ledger);
    checkpoint_seq = checkpoint->manifest.consensus_seq;
    out.floor = checkpoint_seq;
    BinaryReader r(checkpoint->app_state);
    PREVER_ASSIGN_OR_RETURN(
        out.window, BatchWindow::Decode(r, window_width()));
    PREVER_ASSIGN_OR_RETURN(out.protocol_state, r.ReadBytes());
  } else if (checkpoint.status().code() != StatusCode::kNotFound) {
    return checkpoint.status();
  }
  PREVER_ASSIGN_OR_RETURN(
      std::vector<recovery::JournalEvent> events,
      recovery::CommitJournal::Recover(f.journal_path));
  std::vector<recovery::JournalEvent> replayed;
  for (recovery::JournalEvent& event : events) {
    if (PREVER_MUTATION(RESTART_JOURNAL_NOT_REPLAYED,
                        event.position <= checkpoint_seq, true)) {
      continue;
    }
    // A gap means the checkpoint bridging two journal epochs (a state
    // install replaced the ledger wholesale) was lost to corruption. Keep
    // the longest contiguous prefix; consensus re-delivers the rest.
    if (!recovery::ReplayLedgerSuffix(event.entries, &out.ledger).ok()) break;
    (void)out.window.Admit(event.batch_id);
    out.floor = std::max(out.floor, event.position);
    replayed.push_back(std::move(event));
  }
  // The journal keeps exactly what was replayed: no torn tail, nothing the
  // checkpoint covers, nothing past a gap. Re-anchor the checkpoint chain
  // on the checkpoint that survived; until the next save, the journal is
  // kept whole.
  PREVER_RETURN_IF_ERROR(f.journal.Rewrite(replayed));
  f.last_checkpoint = checkpoint_seq;
  f.prev_checkpoint = 0;
  return out;
}

Status ReplicatedOrdering::Flush() {
  PREVER_RETURN_IF_ERROR(files_status_);
  pipeline_->CloseOpenBatch();
  const uint64_t target = pipeline_->TicketCount();
  const SimTime deadline = net_->Now() + kFlushTimeout;
  SimTime next_retry = net_->Now() + kRetryInterval;
  while (committed_ < target && net_->Now() < deadline) {
    if (!net_->Step()) {
      // Idle network: re-submission is the only way forward. If that also
      // generates no events, fail honestly instead of spinning.
      pipeline_->ResubmitUncommitted();
      if (!net_->Step()) break;
    }
    if (net_->Now() >= next_retry) {
      pipeline_->ResubmitUncommitted();
      next_retry = net_->Now() + kRetryInterval;
    }
  }
  pipeline_->OnProgress(windows_[0]);
  if (committed_ < target) {
    return Status::Unavailable(std::string(proto_name_) +
                               " ordering did not commit within the flush "
                               "deadline");
  }
  return Status::Ok();
}

// ------------------------------------------------------------ PbftOrdering

PbftOrdering::PbftOrdering(size_t num_replicas, net::SimNetConfig net_config,
                           const std::string& proto_label,
                           OrderingPipelineConfig pipeline,
                           uint64_t checkpoint_interval,
                           const std::string& data_dir)
    : ReplicatedOrdering(num_replicas, net_config, pipeline, proto_label,
                         "PBFT", checkpoint_interval, data_dir) {
  consensus::PbftConfig config;
  config.num_replicas = num_replicas;
  // Protocol window >= pipeline window, so W instances can run the three
  // phases concurrently without the primary deferring our own submissions.
  config.high_watermark_window =
      std::max<uint64_t>(pipeline.max_inflight, 1);
  config.checkpoint_interval = this->checkpoint_interval();
  cluster_ = std::make_unique<consensus::PbftCluster>(config, &network());
  for (size_t i = 0; i < num_replicas; ++i) {
    cluster_->replica(i).SetStateCallbacks(
        [this, i] { return StateSummary(i); },
        [this, i](const Bytes& summary) { return EncodeStateAt(i, summary); },
        [this, i](uint64_t, const Bytes& summary, const Bytes& state) {
          if (!InstallState(i, summary, state)) return false;
          // The replica adopts the installed stable state only once this
          // returns, so the checkpoint holding it is saved as the next event,
          // at the position the replica has executed through by then.
          if (durable()) {
            network().ScheduleAfter(0, [this, i] {
              PersistInstalledState(i, cluster_->replica(i).last_executed());
            });
          }
          return true;
        });
  }
  cluster_->SetCommitCallback(
      [this](net::NodeId replica, uint64_t seq, const Bytes& cmd) {
        ApplyEnvelope(replica, seq, cmd);
      });
}

Bytes PbftOrdering::StateSummary(size_t i) const {
  ledger::LedgerDigest digest = ReplicaLedger(i).Digest();
  BinaryWriter w;
  Window(i).Encode(w);
  w.WriteU64(digest.size);
  w.WriteBytes(digest.root);
  return w.Take();
}

Bytes PbftOrdering::EncodeStateAt(size_t i, const Bytes& summary) const {
  auto s = DecodePbftSummary(summary, window_width());
  if (!s.ok()) return {};
  const ledger::LedgerDb& ledger = ReplicaLedger(i);
  // The ledger only grows, so the summarized state is its prefix; DigestAt
  // confirms it still is before anything ships. The window moves on, so
  // the summarized one ships as certified.
  auto at = ledger.DigestAt(s->ledger.size);
  if (!at.ok() || !(*at == s->ledger)) return {};
  BinaryWriter w;
  s->window.Encode(w);
  WriteLedgerEntries(ledger, s->ledger.size, w);
  return w.Take();
}

bool PbftOrdering::InstallState(size_t i, const Bytes& summary,
                                const Bytes& state) {
  auto s = DecodePbftSummary(summary, window_width());
  if (!s.ok()) return false;
  BinaryReader r(state);
  auto window = BatchWindow::Decode(r, window_width());
  if (!window.ok() || !(*window == s->window)) return false;
  auto restored = ReadLedgerEntries(r);
  if (!restored.ok() || !(restored->Digest() == s->ledger)) return false;
  return RestoreReplica(i, std::move(*restored), std::move(*window)).ok();
}

Status PbftOrdering::Rejoin(size_t replica, DurableState state) {
  cluster_->replica(replica).Restart(state.protocol_state);
  return RestoreReplica(replica, std::move(state.ledger),
                        std::move(state.window));
}

// ----------------------------------------------------- ShardedPbftOrdering

ShardedPbftOrdering::ShardedPbftOrdering(size_t num_shards,
                                         size_t replicas_per_shard,
                                         net::SimNetConfig net_config,
                                         OrderingPipelineConfig pipeline) {
  for (size_t i = 0; i < num_shards; ++i) {
    net::SimNetConfig cfg = net_config;
    cfg.seed = net_config.seed + i;  // Independent shard networks.
    shards_.push_back(std::make_unique<PbftOrdering>(
        replicas_per_shard, cfg, "pbft-sharded", pipeline));
  }
}

size_t ShardedPbftOrdering::ShardOf(const std::string& routing_key) const {
  // FNV-1a over the routing key.
  uint64_t h = 1469598103934665603ULL;
  for (char c : routing_key) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return h % shards_.size();
}

Status ShardedPbftOrdering::AppendRouted(const std::string& routing_key,
                                         const Bytes& payload,
                                         SimTime timestamp) {
  return shards_[ShardOf(routing_key)]->Append(payload, timestamp);
}

Result<OrderingService::Ticket> ShardedPbftOrdering::SubmitRoutedAsync(
    const std::string& routing_key, const Bytes& payload, SimTime timestamp) {
  PREVER_RETURN_IF_ERROR(
      shards_[ShardOf(routing_key)]->SubmitAsync(payload, timestamp).status());
  return next_ticket_++;
}

Status ShardedPbftOrdering::Flush() {
  Status first = Status::Ok();
  for (auto& shard : shards_) {
    Status s = shard->Flush();
    if (!s.ok() && first.ok()) first = s;
  }
  return first;
}

uint64_t ShardedPbftOrdering::CommittedCount() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->CommittedCount();
  return total;
}

SimTime ShardedPbftOrdering::MaxShardTime() const {
  SimTime max_time = 0;
  for (const auto& shard : shards_) {
    max_time = std::max(max_time, shard->network().Now());
  }
  return max_time;
}

// ------------------------------------------------------------ RaftOrdering

RaftOrdering::RaftOrdering(size_t num_replicas, net::SimNetConfig net_config,
                           OrderingPipelineConfig pipeline,
                           uint64_t checkpoint_interval,
                           const std::string& data_dir)
    : ReplicatedOrdering(num_replicas, net_config, pipeline, "raft", "Raft",
                         checkpoint_interval, data_dir),
      applied_floor_(num_replicas, 0) {
  consensus::RaftConfig config;
  config.num_replicas = num_replicas;
  cluster_ = std::make_unique<consensus::RaftCluster>(config, &network());
  for (size_t i = 0; i < num_replicas; ++i) {
    cluster_->replica(i).SetApplyCallback(
        [this, i](uint64_t index, const Bytes& cmd) {
          applied_floor_[i] = index;
          ApplyEnvelope(i, index, cmd);
        });
    cluster_->replica(i).SetSnapshotInstaller(
        [this, i](uint64_t /*snap_index*/, const Bytes& blob) {
          if (blob.empty() || !RestoreReplicaState(i, blob).ok()) return;
          PersistInstalledState(i, applied_floor_[i]);
        });
  }
  // Elect an initial leader.
  SimTime deadline = network().Now() + 30 * kSecond;
  while (!cluster_->Leader().ok() && network().Now() < deadline) {
    if (!network().Step()) break;
  }
}

Bytes RaftOrdering::EncodeReplicaState(size_t i) const {
  BinaryWriter w;
  w.WriteU64(applied_floor_[i]);
  Window(i).Encode(w);
  WriteLedgerEntries(ReplicaLedger(i), ReplicaLedger(i).size(), w);
  return w.Take();
}

Status RaftOrdering::RestoreReplicaState(size_t i, const Bytes& blob) {
  BinaryReader r(blob);
  PREVER_ASSIGN_OR_RETURN(uint64_t floor, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(BatchWindow window,
                          BatchWindow::Decode(r, window_width()));
  PREVER_ASSIGN_OR_RETURN(ledger::LedgerDb restored, ReadLedgerEntries(r));
  PREVER_RETURN_IF_ERROR(
      RestoreReplica(i, std::move(restored), std::move(window)));
  applied_floor_[i] = floor;
  return Status::Ok();
}

Status RaftOrdering::Rejoin(size_t replica, DurableState state) {
  consensus::RaftReplica& raft = cluster_->replica(replica);
  if (raft.snapshot_index() > state.floor && !raft.snapshot_blob().empty()) {
    // The Raft log was compacted past the durable floor, so a rewind to it
    // could never re-deliver the entries below the snapshot. The snapshot
    // blob carries the state; install it and make it durable.
    PREVER_RETURN_IF_ERROR(RestoreReplicaState(replica, raft.snapshot_blob()));
    raft.Recover(applied_floor_[replica]);
    PersistInstalledState(replica, applied_floor_[replica]);
    return Status::Ok();
  }
  // The checkpoint's ledger and window, extended by the journal.
  PREVER_RETURN_IF_ERROR(RestoreReplica(replica, std::move(state.ledger),
                                        std::move(state.window)));
  applied_floor_[replica] = state.floor;
  raft.Recover(state.floor);
  return Status::Ok();
}

}  // namespace prever::core
