#include "core/ordering.h"

#include <algorithm>

#include "common/serial.h"
#include "mutate/mutation.h"

namespace prever::core {

namespace {

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
  uint64_t applied_seq = 0;
  ledger::LedgerDigest ledger;
};

Result<PbftSummary> DecodePbftSummary(const Bytes& summary) {
  BinaryReader r(summary);
  PbftSummary out;
  PREVER_ASSIGN_OR_RETURN(out.applied_seq, r.ReadU64());
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
  batch.end_ticket = next_ticket_;  // Every issued ticket is now sealed.
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

void GroupCommitPipeline::OnProgress(uint64_t committed) {
  SimTime now = net_->Now();
  while (!inflight_.empty() && inflight_.front().end_ticket <= committed) {
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
  for (const Batch& batch : queued_) {
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

ReplicatedOrdering::ReplicatedOrdering(size_t num_replicas,
                                       net::SimNetConfig net_config,
                                       OrderingPipelineConfig pipeline,
                                       const std::string& proto_label,
                                       const char* proto_name)
    : net_(std::make_unique<net::SimNetwork>(net_config)),
      ledgers_(num_replicas),
      proto_name_(proto_name),
      pipeline_(std::make_unique<GroupCommitPipeline>(
          net_.get(), pipeline, proto_label,
          [this](const Bytes& env) { return SubmitEnvelope(env); })) {}

void ReplicatedOrdering::ApplyEnvelope(size_t replica, uint64_t position,
                                       const Bytes& envelope) {
  BinaryReader r(envelope);
  auto batch_id = r.ReadU64();
  auto count = r.ReadU32();
  if (!batch_id.ok() || !count.ok()) return;  // Not an envelope: skip.
  if (!MarkApplied(replica, position, *batch_id)) return;
  // Decode the whole envelope before touching the ledger: a malformed one
  // appends nothing.
  std::vector<Bytes> payloads;
  payloads.reserve(*count);
  for (uint32_t i = 0; i < *count; ++i) {
    auto payload = r.ReadBytes();
    if (!payload.ok()) return;
    payloads.push_back(std::move(*payload));
  }
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
    pipeline_->OnProgress(committed_);
  }
  if (commit_observer_) {
    commit_observer_(replica, position, *batch_id,
                     EncodeLedgerTail(ledgers_[replica], payloads.size()));
  }
}

Status ReplicatedOrdering::InstallLedger(size_t i, ledger::LedgerDb ledger) {
  if (i >= ledgers_.size()) return Status::InvalidArgument("bad replica");
  ledgers_[i] = std::move(ledger);
  if (i == 0) committed_ = ledgers_[0].size();
  return Status::Ok();
}

Status ReplicatedOrdering::Flush() {
  pipeline_->CloseOpenBatch();
  const uint64_t target = pipeline_->TicketCount();
  const OrderingPipelineConfig& cfg = pipeline_->config();
  const SimTime deadline = net_->Now() + cfg.flush_timeout;
  SimTime next_retry = net_->Now() + cfg.retry_interval;
  while (committed_ < target && net_->Now() < deadline) {
    if (!net_->Step()) {
      // Idle network: re-submission is the only way forward. If that also
      // generates no events, fail honestly instead of spinning.
      pipeline_->ResubmitUncommitted();
      if (!net_->Step()) break;
    }
    if (net_->Now() >= next_retry) {
      pipeline_->ResubmitUncommitted();
      next_retry = net_->Now() + cfg.retry_interval;
    }
  }
  pipeline_->OnProgress(committed_);
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
                           uint64_t checkpoint_interval)
    : ReplicatedOrdering(num_replicas, net_config, pipeline, proto_label,
                         "PBFT"),
      applied_seq_(num_replicas, 0) {
  consensus::PbftConfig config;
  config.num_replicas = num_replicas;
  // Protocol window >= pipeline window, so W instances can run the three
  // phases concurrently without the primary deferring our own submissions.
  config.high_watermark_window =
      std::max<uint64_t>(pipeline.max_inflight, 1);
  config.checkpoint_interval = checkpoint_interval;
  cluster_ = std::make_unique<consensus::PbftCluster>(config, &network());
  for (size_t i = 0; i < num_replicas; ++i) {
    cluster_->replica(i).SetStateCallbacks(
        [this, i] { return StateSummary(i); },
        [this, i](const Bytes& summary) { return EncodeStateAt(i, summary); },
        [this, i](uint64_t, const Bytes& summary, const Bytes& state) {
          return InstallState(i, summary, state);
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
  w.WriteU64(applied_seq_[i]);
  w.WriteU64(digest.size);
  w.WriteBytes(digest.root);
  return w.Take();
}

Bytes PbftOrdering::EncodeStateAt(size_t i, const Bytes& summary) const {
  auto s = DecodePbftSummary(summary);
  if (!s.ok()) return {};
  const ledger::LedgerDb& ledger = ReplicaLedger(i);
  // The ledger only grows, so the summarized state is its prefix; DigestAt
  // confirms it still is before anything ships.
  auto at = ledger.DigestAt(s->ledger.size);
  if (!at.ok() || !(*at == s->ledger)) return {};
  BinaryWriter w;
  WriteLedgerEntries(ledger, s->ledger.size, w);
  return w.Take();
}

bool PbftOrdering::InstallState(size_t i, const Bytes& summary,
                                const Bytes& state) {
  auto s = DecodePbftSummary(summary);
  if (!s.ok()) return false;
  BinaryReader r(state);
  auto restored = ReadLedgerEntries(r);
  if (!restored.ok() || !(restored->Digest() == s->ledger)) return false;
  return RestoreReplica(i, std::move(*restored), s->applied_seq).ok();
}

Status PbftOrdering::RestoreReplica(size_t i, ledger::LedgerDb ledger,
                                    uint64_t applied_seq) {
  PREVER_RETURN_IF_ERROR(InstallLedger(i, std::move(ledger)));
  applied_seq_[i] = applied_seq;
  return Status::Ok();
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

Status ShardedPbftOrdering::Append(const Bytes& payload, SimTime timestamp) {
  return AppendRouted(ToString(payload), payload, timestamp);
}

Result<OrderingService::Ticket> ShardedPbftOrdering::SubmitRoutedAsync(
    const std::string& routing_key, const Bytes& payload, SimTime timestamp) {
  PREVER_RETURN_IF_ERROR(
      shards_[ShardOf(routing_key)]->SubmitAsync(payload, timestamp).status());
  return next_ticket_++;
}

Result<OrderingService::Ticket> ShardedPbftOrdering::SubmitAsync(
    const Bytes& payload, SimTime timestamp) {
  return SubmitRoutedAsync(ToString(payload), payload, timestamp);
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
                           OrderingPipelineConfig pipeline)
    : ReplicatedOrdering(num_replicas, net_config, pipeline, "raft", "Raft"),
      applied_batches_(num_replicas),
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
          if (!blob.empty()) (void)RestoreReplicaState(i, blob);
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
  w.WriteU64(applied_batches_[i].size());
  for (uint64_t id : applied_batches_[i]) w.WriteU64(id);
  WriteLedgerEntries(ReplicaLedger(i), ReplicaLedger(i).size(), w);
  return w.Take();
}

Status RaftOrdering::RestoreReplicaState(size_t i, const Bytes& blob) {
  uint64_t floor = 0;
  std::set<uint64_t> ids;
  ledger::LedgerDb restored;
  if (!blob.empty()) {
    BinaryReader r(blob);
    PREVER_ASSIGN_OR_RETURN(floor, r.ReadU64());
    PREVER_ASSIGN_OR_RETURN(uint64_t n_ids, r.ReadU64());
    for (uint64_t k = 0; k < n_ids; ++k) {
      PREVER_ASSIGN_OR_RETURN(uint64_t id, r.ReadU64());
      ids.insert(id);
    }
    PREVER_ASSIGN_OR_RETURN(restored, ReadLedgerEntries(r));
  }
  PREVER_RETURN_IF_ERROR(InstallLedger(i, std::move(restored)));
  applied_batches_[i] = std::move(ids);
  applied_floor_[i] = floor;
  return Status::Ok();
}

Status RaftOrdering::RestoreReplica(size_t i, ledger::LedgerDb ledger,
                                    uint64_t applied_floor,
                                    const std::vector<uint64_t>& batch_ids) {
  PREVER_RETURN_IF_ERROR(InstallLedger(i, std::move(ledger)));
  applied_batches_[i].insert(batch_ids.begin(), batch_ids.end());
  applied_floor_[i] = applied_floor;
  // Re-drive the state machine through the real recovery path: the replica
  // rewinds last_applied to the restored floor and re-delivers the committed
  // suffix (batch-id dedup absorbs anything already in the ledger).
  cluster_->replica(i).Recover(applied_floor);
  return Status::Ok();
}

}  // namespace prever::core
