#include "consensus/pbft.h"

#include <algorithm>
#include <utility>

#include "common/serial.h"
#include "crypto/sha256.h"
#include "mutate/mutation.h"
#include "obs/registry.h"
#include "obs/tracing.h"

namespace prever::consensus {

namespace {

enum PbftMsgType : uint32_t {
  kClientRequest = 1,
  kPrePrepare = 2,
  kPrepare = 3,
  kCommit = 4,
  kViewChange = 5,
  kNewView = 6,
  kCheckpoint = 7,
  kFetchState = 8,
  kStateResponse = 9,
};

obs::Counter& PbftStateTransferBytesCounter() {
  static obs::Counter* c = obs::Registry::Default().GetCounter(
      "prever_recovery_state_transfer_bytes");
  return *c;
}

obs::Counter& PbftLogBytesReclaimedCounter() {
  static obs::Counter* c = obs::Registry::Default().GetCounter(
      "prever_recovery_log_bytes_reclaimed");
  return *c;
}

Bytes DigestOf(const Bytes& command) { return crypto::Sha256::Hash(command); }

Bytes EncodePrePrepare(uint64_t view, uint64_t seq, const Bytes& command) {
  BinaryWriter w;
  w.WriteU64(view);
  w.WriteU64(seq);
  w.WriteBytes(command);
  return w.Take();
}

Bytes EncodeVote(uint64_t view, uint64_t seq, const Bytes& digest) {
  BinaryWriter w;
  w.WriteU64(view);
  w.WriteU64(seq);
  w.WriteBytes(digest);
  return w.Take();
}

using PreparedEntry = PbftReplica::PreparedEntry;

Bytes EncodeViewChange(uint64_t new_view,
                       const std::vector<PreparedEntry>& entries) {
  BinaryWriter w;
  w.WriteU64(new_view);
  w.WriteU32(static_cast<uint32_t>(entries.size()));
  for (const PreparedEntry& e : entries) {
    w.WriteU64(e.seq);
    w.WriteU64(e.view);
    w.WriteBytes(e.command);
  }
  return w.Take();
}

Result<std::pair<uint64_t, std::vector<PreparedEntry>>> DecodeViewChange(
    const Bytes& payload) {
  BinaryReader r(payload);
  PREVER_ASSIGN_OR_RETURN(uint64_t new_view, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
  std::vector<PreparedEntry> entries(n);
  for (uint32_t i = 0; i < n; ++i) {
    PREVER_ASSIGN_OR_RETURN(entries[i].seq, r.ReadU64());
    PREVER_ASSIGN_OR_RETURN(entries[i].view, r.ReadU64());
    PREVER_ASSIGN_OR_RETURN(entries[i].command, r.ReadBytes());
  }
  return std::make_pair(new_view, std::move(entries));
}

/// Running hash over executed request digests: H(prev || digest), seeded
/// with 32 zero bytes. Fixed-size however long the history.
Bytes ChainDigest(const Bytes& prev, const Bytes& digest) {
  crypto::Sha256 h;
  h.Update(prev);
  h.Update(digest);
  return h.Finish();
}

Bytes ChainSeed() { return Bytes(32, 0); }

/// Checkpoint certificate: [u64 seq][u64 executed][chain][app summary].
struct Certificate {
  uint64_t seq = 0;
  uint64_t num_executed = 0;
  Bytes exec_chain;
  Bytes app_summary;
};

Bytes EncodeCertificate(const Certificate& c) {
  BinaryWriter w;
  w.WriteU64(c.seq);
  w.WriteU64(c.num_executed);
  w.WriteBytes(c.exec_chain);
  w.WriteBytes(c.app_summary);
  return w.Take();
}

Result<Certificate> DecodeCertificate(const Bytes& payload) {
  BinaryReader r(payload);
  Certificate c;
  PREVER_ASSIGN_OR_RETURN(c.seq, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(c.num_executed, r.ReadU64());
  PREVER_ASSIGN_OR_RETURN(c.exec_chain, r.ReadBytes());
  PREVER_ASSIGN_OR_RETURN(c.app_summary, r.ReadBytes());
  return c;
}

/// Full state behind a certificate: [cert][app state].
struct StableState {
  Bytes cert;
  Bytes app_state;
};

Result<StableState> DecodeStableState(const Bytes& blob) {
  BinaryReader r(blob);
  StableState st;
  PREVER_ASSIGN_OR_RETURN(st.cert, r.ReadBytes());
  PREVER_ASSIGN_OR_RETURN(st.app_state, r.ReadBytes());
  return st;
}

}  // namespace

PbftReplica::PbftReplica(net::NodeId id, const PbftConfig& config,
                         net::SimNetwork* net)
    : id_(id),
      config_(config),
      net_(net),
      exec_chain_(ChainSeed()),
      peer_checkpoint_seq_(config.num_replicas, 0) {
  if (config_.checkpoint_interval == 0) config_.checkpoint_interval = 1;
}

void PbftReplica::SendMsg(net::NodeId to, uint32_t type,
                          const Bytes& payload) {
  if (metrics_ != nullptr) metrics_->OnSend(type);
  net_->Send(id_, to, type, payload);
}

void PbftReplica::Broadcast(uint32_t type, const Bytes& payload) {
  for (net::NodeId to = 0; to < config_.num_replicas; ++to) {
    if (to != id_) SendMsg(to, type, payload);
  }
}

void PbftReplica::OnMessage(const net::Message& msg) {
  if (crashed_ || fault_mode_ == PbftFaultMode::kSilent) return;
  if (metrics_ != nullptr) metrics_->OnRecv(msg.type);
  switch (msg.type) {
    case kClientRequest:
      OnClientRequest(msg.payload);
      break;
    case kPrePrepare:
      HandlePrePrepare(msg);
      break;
    case kPrepare:
      HandlePrepare(msg);
      break;
    case kCommit:
      HandleCommit(msg);
      break;
    case kViewChange:
      HandleViewChange(msg);
      break;
    case kNewView:
      HandleNewView(msg);
      break;
    case kCheckpoint:
      HandleCheckpoint(msg);
      break;
    case kFetchState:
      HandleFetchState(msg);
      break;
    case kStateResponse:
      HandleStateResponse(msg);
      break;
    default:
      break;
  }
}

void PbftReplica::OnClientRequest(const Bytes& command) {
  if (crashed_ || fault_mode_ == PbftFaultMode::kSilent) return;
  Bytes digest = DigestOf(command);
  PendingRequest& request = pending_requests_[digest];
  request.command = command;
  if (IsPrimary() && !view_changing_) {
    if (request.proposed) return;
    if (next_seq_ > last_executed_ + config_.high_watermark_window) {
      // Window full: defer until execution advances the low watermark.
      // Backups armed timers when this request was broadcast, so liveness
      // does not depend on the drain happening.
      if (!std::exchange(request.deferred, true)) deferred_.push_back(digest);
      return;
    }
    request.proposed = true;
    Propose(command);
  } else {
    ArmRequestTimer(digest);
  }
}

void PbftReplica::Propose(const Bytes& command) {
  uint64_t seq = next_seq_++;
  Bytes digest = DigestOf(command);
  SlotState& slot = Slot(seq);
  slot.view = view_;
  slot.digest = digest;
  slot.command = command;
  slot.pre_prepared = true;
  slot.prepares[digest].insert(id_);

  if (fault_mode_ == PbftFaultMode::kEquivocate) {
    // Send conflicting proposals to the two halves of the cluster; PBFT's
    // prepare quorums must prevent both from committing.
    Bytes other = command;
    other.push_back(0xEE);
    for (net::NodeId to = 0; to < config_.num_replicas; ++to) {
      if (to == id_) continue;
      const Bytes& cmd = (to % 2 == 0) ? command : other;
      SendMsg(to, kPrePrepare, EncodePrePrepare(view_, seq, cmd));
    }
    return;
  }
  for (net::NodeId to = 0; to < config_.num_replicas; ++to) {
    if (to == id_) continue;
    SendMsg(to, kPrePrepare, EncodePrePrepare(view_, seq, command));
  }
}

void PbftReplica::HandlePrePrepare(const net::Message& msg) {
  BinaryReader r(msg.payload);
  auto view = r.ReadU64();
  auto seq = r.ReadU64();
  auto command = r.ReadBytes();
  if (!view.ok() || !seq.ok() || !command.ok()) return;
  // Hop markers: the delivered message's propagated context (installed by
  // SimNetwork) ties each PBFT phase hop to its transaction's trace.
  PREVER_CAUSAL_INSTANT(obs::TraceStage::kPbftPrePrepare, *seq);
  if (*view > view_ || (view_changing_ && *view == view_)) {
    Stash(msg);  // Raced ahead of our NewView; replay after installation.
    return;
  }
  if (*view != view_ || view_changing_) return;
  if (PREVER_MUTATION(PBFT_PRIMARY_CHECK_SKIP,
                      msg.from != view_ % config_.num_replicas, false)) {
    return;  // Not the primary.
  }
  // Watermark bound: refuse proposals far past our execution point (2x the
  // primary's window — our low watermark may lag its). Caps log_ growth under
  // a Byzantine primary spraying arbitrary sequence numbers.
  if (PREVER_MUTATION(PBFT_WATERMARK_SKIP,
                      *seq > last_executed_ + 2 * config_.high_watermark_window,
                      false)) {
    return;
  }

  if (*seq <= stable_seq_) return;  // Below the low watermark: collected.

  SlotState& slot = Slot(*seq);
  Bytes digest = DigestOf(*command);
  if (PREVER_MUTATION(PBFT_CONFLICTING_DIGEST_ACCEPT,
                      slot.pre_prepared && slot.digest != digest, false)) {
    // Conflicting proposal for the same (view, seq): refuse; the timer will
    // force a view change if progress stalls.
    return;
  }
  slot.view = *view;
  slot.digest = digest;
  slot.command = *command;
  slot.pre_prepared = true;
  // The pre-prepare is the primary's prepare (it sends no other), so
  // 2f+1 = the primary plus 2f backups, this one included.
  slot.prepares[digest].insert(msg.from);
  slot.prepares[digest].insert(id_);
  if (*seq >= next_seq_) next_seq_ = *seq + 1;
  for (net::NodeId to = 0; to < config_.num_replicas; ++to) {
    if (to == id_) continue;
    SendMsg(to, kPrepare, EncodeVote(*view, *seq, digest));
  }
  ArmRequestTimer(digest);
  MaybeSendCommit(*seq);
}

void PbftReplica::HandlePrepare(const net::Message& msg) {
  BinaryReader r(msg.payload);
  auto view = r.ReadU64();
  auto seq = r.ReadU64();
  auto digest = r.ReadBytes();
  if (!view.ok() || !seq.ok() || !digest.ok()) return;
  PREVER_CAUSAL_INSTANT(obs::TraceStage::kPbftPrepare, *seq);
  if (*view > view_ || (view_changing_ && *view == view_)) {
    Stash(msg);
    return;
  }
  if (*view != view_ || view_changing_) return;
  if (*seq <= stable_seq_) return;  // Below the low watermark: collected.
  SlotState& slot = Slot(*seq);
  slot.prepares[*digest].insert(msg.from);
  MaybeSendCommit(*seq);
}

void PbftReplica::MaybeSendCommit(uint64_t seq) {
  SlotState& slot = Slot(seq);
  if (!slot.pre_prepared || slot.sent_commit) return;
  if (PREVER_MUTATION(PBFT_PREPARE_QUORUM_MINUS_ONE,
                      slot.prepares[slot.digest].size() < quorum2f1(),
                      slot.prepares[slot.digest].size() + 1 < quorum2f1())) {
    return;
  }
  slot.sent_commit = true;
  slot.commits[slot.digest].insert(id_);
  for (net::NodeId to = 0; to < config_.num_replicas; ++to) {
    if (to == id_) continue;
    SendMsg(to, kCommit, EncodeVote(view_, seq, slot.digest));
  }
  TryExecute();
}

void PbftReplica::HandleCommit(const net::Message& msg) {
  BinaryReader r(msg.payload);
  auto view = r.ReadU64();
  auto seq = r.ReadU64();
  auto digest = r.ReadBytes();
  if (!view.ok() || !seq.ok() || !digest.ok()) return;
  PREVER_CAUSAL_INSTANT(obs::TraceStage::kPbftCommit, *seq);
  if (*seq <= stable_seq_) return;  // Below the low watermark: collected.
  SlotState& slot = Slot(*seq);
  slot.commits[*digest].insert(msg.from);
  TryExecute();
}

void PbftReplica::TryExecute() {
  ExecuteLoop();
  // Execution moved the low watermark; the primary can propose deferred
  // requests that now fit the window.
  DrainDeferred();
}

void PbftReplica::DrainDeferred() {
  if (!IsPrimary() || view_changing_) return;
  while (!deferred_.empty() &&
         next_seq_ <= last_executed_ + config_.high_watermark_window) {
    auto request = pending_requests_.find(deferred_.front());
    deferred_.pop_front();
    if (request == pending_requests_.end() || request->second.proposed) {
      continue;  // Executed meanwhile, or already proposed.
    }
    request->second.proposed = true;
    Propose(request->second.command);
  }
}

void PbftReplica::ExecuteLoop() {
  for (;;) {
    auto it = log_.find(last_executed_ + 1);
    if (it == log_.end()) return;
    SlotState& slot = it->second;
    if (slot.executed) {
      ++last_executed_;
      MaybeCreateCheckpoint();
      continue;
    }
    if (!slot.pre_prepared || slot.sent_commit == false) return;
    if (PREVER_MUTATION(PBFT_COMMIT_QUORUM_MINUS_ONE,
                        slot.commits[slot.digest].size() < quorum2f1(),
                        slot.commits[slot.digest].size() + 1 < quorum2f1())) {
      return;
    }
    slot.executed = true;
    ++last_executed_;
    RecordExecution(slot.digest);
    if (commit_cb_) commit_cb_(last_executed_, slot.command);
    MaybeCreateCheckpoint();
  }
}

void PbftReplica::RecordExecution(const Bytes& digest) {
  ++num_executed_;
  exec_chain_ = ChainDigest(exec_chain_, digest);
  pending_requests_.erase(digest);
  pending_timers_.erase(digest);
}

Bytes PbftReplica::EncodeStableState() const {
  if (stable_seq_ == 0) return {};
  auto cert = DecodeCertificate(stable_cert_);
  if (!cert.ok()) return {};
  Bytes app;
  if (state_encode_) {
    app = state_encode_(cert->app_summary);
    if (app.empty()) return {};
  }
  BinaryWriter w;
  w.WriteBytes(stable_cert_);
  w.WriteBytes(app);
  return w.Take();
}

bool PbftReplica::InstallStableState(const Bytes& blob) {
  auto st = DecodeStableState(blob);
  if (!st.ok()) return false;
  auto cert = DecodeCertificate(st->cert);
  if (!cert.ok()) return false;
  // The application state must reproduce the certificate's summary; a
  // mismatch changes nothing.
  if (state_install_ &&
      !state_install_(cert->seq, cert->app_summary, st->app_state)) {
    return false;
  }

  last_executed_ = cert->seq;
  num_executed_ = cert->num_executed;
  exec_chain_ = std::move(cert->exec_chain);
  if (next_seq_ <= cert->seq) next_seq_ = cert->seq + 1;
  stable_seq_ = cert->seq;
  stable_cert_ = std::move(st->cert);
  // Everything at or below the installed point is reflected in the
  // installed state; drop those slots. Which pending requests it executed
  // is the application's to know, so drop them all rather than let their
  // timers start view changes: clients re-send what is still uncommitted.
  for (auto it = log_.begin(); it != log_.end() && it->first <= cert->seq;) {
    it = log_.erase(it);
  }
  pending_requests_.clear();
  pending_timers_.clear();
  return true;
}

void PbftReplica::MaybeCreateCheckpoint() {
  if (last_executed_ <= stable_seq_) return;
  if (last_executed_ % config_.checkpoint_interval != 0) return;
  PendingCheckpoint& cp = checkpoints_[last_executed_];
  if (!cp.own_cert.empty()) return;
  cp.own_cert = EncodeCertificate(
      Certificate{last_executed_, num_executed_, exec_chain_,
                  state_summary_ ? state_summary_() : Bytes{}});
  cp.votes[id_] = cp.own_cert;
  Broadcast(kCheckpoint, cp.own_cert);
  MaybeStabilize(last_executed_);
}

void PbftReplica::MaybeStabilize(uint64_t seq) {
  if (seq <= stable_seq_) return;
  auto it = checkpoints_.find(seq);
  if (it == checkpoints_.end()) return;
  PendingCheckpoint& cp = it->second;
  if (cp.own_cert.empty()) return;  // Our own state anchors the certificate.
  size_t matching = 0;
  for (const auto& [voter, cert] : cp.votes) matching += cert == cp.own_cert;
  if (matching < quorum2f1()) return;
  // 2f+1 matching certificates: the checkpoint is stable; advance the low
  // watermark and garbage-collect the message log below it.
  stable_seq_ = seq;
  stable_cert_ = cp.own_cert;
  CollectGarbage();
}

void PbftReplica::CollectGarbage() {
  uint64_t floor = PREVER_MUTATION(PBFT_GC_BEYOND_STABLE, stable_seq_,
                                   stable_seq_ + 1);
  uint64_t reclaimed = 0;
  for (auto it = log_.begin(); it != log_.end() && it->first <= floor;) {
    const SlotState& slot = it->second;
    reclaimed += slot.command.size() + slot.digest.size() + 64;
    it = log_.erase(it);
  }
  for (auto it = checkpoints_.begin();
       it != checkpoints_.end() && it->first <= stable_seq_;) {
    reclaimed += it->second.own_cert.size();
    it = checkpoints_.erase(it);
  }
  PbftLogBytesReclaimedCounter().Inc(reclaimed);
}

uint64_t PbftReplica::VouchedCheckpointSeq() const {
  // The (f+1)-th highest seq among the peers' latest checkpoints: f+1
  // replicas, so at least one correct one, reached it.
  std::vector<uint64_t> seqs;
  for (net::NodeId peer = 0; peer < peer_checkpoint_seq_.size(); ++peer) {
    if (peer != id_) seqs.push_back(peer_checkpoint_seq_[peer]);
  }
  if (seqs.size() < f() + 1) return 0;
  std::nth_element(seqs.begin(), seqs.begin() + f(), seqs.end(),
                   std::greater<uint64_t>());
  return seqs[f()];
}

bool PbftReplica::LagsFullInterval() const {
  return VouchedCheckpointSeq() >=
         last_executed_ + config_.checkpoint_interval;
}

void PbftReplica::HandleCheckpoint(const net::Message& msg) {
  if (msg.from >= peer_checkpoint_seq_.size()) return;
  auto cert = DecodeCertificate(msg.payload);
  if (!cert.ok()) return;
  const uint64_t seq = cert->seq;
  uint64_t& latest = peer_checkpoint_seq_[msg.from];
  if (seq > latest) latest = seq;
  // Votes count only at checkpoint seqs this replica can still reach by
  // executing: above the stable one, and within an interval plus the
  // backups' pre-prepare window of its execution point. Further ahead it
  // catches up by state transfer instead, so a faulty peer cannot grow
  // checkpoints_ with far-future seqs.
  const uint64_t horizon = last_executed_ + config_.checkpoint_interval +
                           2 * config_.high_watermark_window;
  if (seq > stable_seq_ && seq <= horizon &&
      seq % config_.checkpoint_interval == 0) {
    checkpoints_[seq].votes.emplace(msg.from, msg.payload);
    MaybeStabilize(seq);
  }
  // f+1 replicas checkpointing a full interval past our execution point
  // means we missed instances nobody re-sends (crash, partition): catch up
  // by state transfer. A smaller lag is ordinary pipeline skew.
  if (LagsFullInterval()) RequestStateTransfer();
}

void PbftReplica::RequestStateTransfer() {
  if (fetch_inflight_) return;
  fetch_inflight_ = true;
  state_responses_.clear();
  BinaryWriter w;
  w.WriteU64(last_executed_);
  Broadcast(kFetchState, w.bytes());
  // Refetch until caught up: responses can race with further progress, and
  // the first round may arrive while we still lag.
  net_->ScheduleAfter(config_.view_change_timeout, [this] {
    if (crashed_ || fault_mode_ == PbftFaultMode::kSilent) return;
    fetch_inflight_ = false;
    if (LagsFullInterval()) RequestStateTransfer();
  });
}

void PbftReplica::HandleFetchState(const net::Message& msg) {
  BinaryReader r(msg.payload);
  auto their_executed = r.ReadU64();
  if (!their_executed.ok()) return;
  if (last_executed_ <= *their_executed) return;  // Nothing to offer.
  BinaryWriter w;
  w.WriteU64(view_);
  // The full stable state only when the requester is behind it.
  w.WriteBytes(stable_seq_ > *their_executed ? EncodeStableState() : Bytes{});
  // Executed suffix past both the stable checkpoint and the requester, in
  // sequence order; the requester certifies each command against f+1
  // matching responses.
  const uint64_t from = std::max(stable_seq_, *their_executed);
  std::vector<std::pair<uint64_t, const Bytes*>> suffix;
  for (auto it = log_.upper_bound(from);
       it != log_.end() && it->first <= last_executed_; ++it) {
    if (it->second.executed) suffix.emplace_back(it->first, &it->second.command);
  }
  w.WriteU32(static_cast<uint32_t>(suffix.size()));
  for (const auto& [seq, cmd] : suffix) {
    w.WriteU64(seq);
    w.WriteBytes(*cmd);
  }
  SendMsg(msg.from, kStateResponse, w.bytes());
}

void PbftReplica::HandleStateResponse(const net::Message& msg) {
  BinaryReader r(msg.payload);
  StateResponse resp;
  auto view = r.ReadU64();
  auto state = r.ReadBytes();
  auto n = r.ReadU32();
  if (!view.ok() || !state.ok() || !n.ok()) return;
  resp.view = *view;
  if (!state->empty()) {
    auto cert = BinaryReader(*state).ReadBytes();  // The blob's first field.
    if (!cert.ok()) return;
    resp.cert = std::move(*cert);
    resp.state = std::move(*state);
  }
  for (uint32_t i = 0; i < *n; ++i) {
    auto seq = r.ReadU64();
    auto cmd = r.ReadBytes();
    if (!seq.ok() || !cmd.ok()) return;
    resp.suffix[*seq] = std::move(*cmd);
  }
  state_responses_[msg.from] = std::move(resp);
  TryInstallState();
}

void PbftReplica::TryInstallState() {
  // Certify the stable checkpoint: f+1 responders vouching for the same
  // certificate guarantees at least one honest voucher, and the certificate
  // it vouches for carries 2f+1 matching votes at its origin. The full
  // state installed must then reproduce that certificate.
  size_t needed =
      PREVER_MUTATION(PBFT_STATE_MATCH_QUORUM_MINUS_ONE, f() + 1, f());
  if (needed == 0) needed = 1;
  std::map<Bytes, std::vector<const StateResponse*>> groups;
  for (const auto& [from, resp] : state_responses_) {
    if (!resp.cert.empty()) groups[resp.cert].push_back(&resp);
  }
  uint64_t best_seq = last_executed_;
  const std::vector<const StateResponse*>* best = nullptr;
  for (const auto& [cert, voters] : groups) {
    auto c = DecodeCertificate(cert);
    if (c.ok() && voters.size() >= needed && c->seq > best_seq) {
      best_seq = c->seq;
      best = &voters;
    }
  }
  if (best != nullptr) {
    for (const StateResponse* resp : *best) {
      const uint64_t bytes = resp->state.size();
      if (!InstallStableState(resp->state)) continue;
      // Adopt the highest view among the responders so we do not trigger
      // spurious view changes against a cluster that moved on.
      for (const auto& [from, other] : state_responses_) {
        if (other.view > view_) {
          view_ = other.view;
          view_changing_ = false;
        }
      }
      PbftStateTransferBytesCounter().Inc(bytes);
      PREVER_CAUSAL_INSTANT(obs::TraceStage::kStateTransfer, bytes);
      break;
    }
  }
  ExecuteCertifiedSuffix();
}

void PbftReplica::ExecuteCertifiedSuffix() {
  size_t needed =
      PREVER_MUTATION(PBFT_STATE_MATCH_QUORUM_MINUS_ONE, f() + 1, f());
  if (needed == 0) needed = 1;
  for (;;) {
    uint64_t seq = last_executed_ + 1;
    // Count matching commands for this sequence across responses.
    std::map<Bytes, std::set<net::NodeId>> votes;
    for (const auto& [from, resp] : state_responses_) {
      auto it = resp.suffix.find(seq);
      if (it != resp.suffix.end()) votes[it->second].insert(from);
    }
    const Bytes* command = nullptr;
    for (const auto& [cmd, voters] : votes) {
      if (voters.size() >= needed) {
        command = &cmd;
        break;
      }
    }
    if (command == nullptr) return;
    // Execute through the normal path: record an executed slot so later
    // fetch-state requests from others can serve this suffix too.
    SlotState& slot = Slot(seq);
    Bytes digest = DigestOf(*command);
    slot.view = view_;
    slot.digest = digest;
    slot.command = *command;
    slot.pre_prepared = true;
    slot.sent_commit = true;
    slot.executed = true;
    last_executed_ = seq;
    PbftStateTransferBytesCounter().Inc(command->size());
    if (next_seq_ <= seq) next_seq_ = seq + 1;
    RecordExecution(digest);
    if (commit_cb_) commit_cb_(last_executed_, *command);
    MaybeCreateCheckpoint();
  }
}

void PbftReplica::Crash() {
  crashed_ = true;
  // Volatile protocol state is lost; view_ survives (durable view counter),
  // and the application recovers its part from checkpoint + journal.
  log_.clear();
  stashed_.clear();
  deferred_.clear();
  exec_chain_ = ChainSeed();
  pending_timers_.clear();
  pending_requests_.clear();
  view_change_entries_.clear();
  checkpoints_.clear();
  state_responses_.clear();
  stable_seq_ = 0;
  stable_cert_.clear();
  std::fill(peer_checkpoint_seq_.begin(), peer_checkpoint_seq_.end(), 0);
  fetch_inflight_ = false;
  view_changing_ = false;
  next_seq_ = 1;
  last_executed_ = 0;
  num_executed_ = 0;
}

void PbftReplica::Restart(const Bytes& stable_state) {
  crashed_ = false;
  if (!stable_state.empty()) (void)InstallStableState(stable_state);
  RequestStateTransfer();
}

void PbftReplica::Stash(const net::Message& msg) {
  constexpr size_t kMaxStash = 4096;
  if (stashed_.size() < kMaxStash) stashed_.push_back(msg);
}

void PbftReplica::ArmRequestTimer(const Bytes& digest) {
  if (pending_timers_.count(digest)) return;
  pending_timers_[digest] = true;
  uint64_t armed_view = view_;
  net_->ScheduleAfter(config_.view_change_timeout, [this, digest, armed_view] {
    if (crashed_ || fault_mode_ == PbftFaultMode::kSilent) return;
    if (!pending_timers_.count(digest)) return;  // Executed meanwhile.
    if (view_ != armed_view) return;  // Already moved on; a fresh timer runs.
    if (MissedCommittedSeq()) {
      // The cluster committed a sequence number this replica cannot execute
      // (its messages were lost while it was down or cut off, or refused
      // past its window), and nobody re-sends them: the primary is not at
      // fault. Fetch the executed suffix and wait again.
      RequestStateTransfer();
      pending_timers_.erase(digest);
      ArmRequestTimer(digest);
      return;
    }
    StartViewChange(view_ + 1);
  });
}

bool PbftReplica::MissedCommittedSeq() const {
  for (auto it = log_.upper_bound(last_executed_); it != log_.end(); ++it) {
    for (const auto& [digest, voters] : it->second.commits) {
      if (voters.size() >= quorum2f1()) return true;
    }
  }
  return false;
}

void PbftReplica::StartViewChange(uint64_t new_view) {
  if (new_view <= view_) return;
  if (metrics_ != nullptr) metrics_->OnViewChange();
  view_changing_ = true;
  // Escalation timer: if this view change stalls (e.g. the new primary is
  // faulty too), move on to the next view — PBFT's exponential-backoff
  // cascade, simplified to a fixed period.
  net_->ScheduleAfter(2 * config_.view_change_timeout, [this, new_view] {
    if (crashed_ || fault_mode_ == PbftFaultMode::kSilent) return;
    bool installed = view_ >= new_view && !view_changing_;
    if (!installed && view_ < new_view + 1) {
      StartViewChange(new_view + 1);
    }
  });
  std::vector<PreparedEntry> prepared;
  for (auto& [seq, slot] : log_) {
    if (slot.executed) continue;
    if (slot.pre_prepared &&
        slot.prepares[slot.digest].size() >= quorum2f1()) {
      prepared.push_back(PreparedEntry{seq, slot.view, slot.command});
    }
  }
  Bytes payload = EncodeViewChange(new_view, prepared);
  // Record our own view-change vote, then broadcast.
  view_change_entries_[new_view][id_] = prepared;
  for (net::NodeId to = 0; to < config_.num_replicas; ++to) {
    if (to == id_) continue;
    SendMsg(to, kViewChange, payload);
  }
  MaybeBecomeNewPrimary(new_view);
}

void PbftReplica::HandleViewChange(const net::Message& msg) {
  auto decoded = DecodeViewChange(msg.payload);
  if (!decoded.ok()) return;
  uint64_t new_view = decoded->first;
  if (PREVER_MUTATION(PBFT_VIEWCHANGE_STALE_ACCEPT, new_view <= view_, false)) {
    return;
  }
  view_change_entries_[new_view][msg.from] = std::move(decoded->second);
  // Join the view change once f+1 replicas are attempting it (standard
  // liveness amplification).
  if (!view_changing_ &&
      view_change_entries_[new_view].size() >= f() + 1) {
    StartViewChange(new_view);
    return;
  }
  MaybeBecomeNewPrimary(new_view);
}

void PbftReplica::MaybeBecomeNewPrimary(uint64_t new_view) {
  if (new_view % config_.num_replicas != id_) return;
  auto it = view_change_entries_.find(new_view);
  if (it == view_change_entries_.end()) return;
  if (it->second.size() < quorum2f1()) return;
  if (new_view <= installed_new_view_) return;
  installed_new_view_ = new_view;

  // Union of prepared entries: highest view wins per sequence number.
  std::map<uint64_t, PreparedEntry> merged;
  for (auto& [from, entries] : it->second) {
    for (const PreparedEntry& e : entries) {
      auto found = merged.find(e.seq);
      if (found == merged.end() || found->second.view < e.view) {
        merged[e.seq] = e;
      }
    }
  }
  std::vector<PreparedEntry> reproposals;
  reproposals.reserve(merged.size());
  for (auto& [seq, e] : merged) reproposals.push_back(e);

  Bytes payload = EncodeViewChange(new_view, reproposals);  // Same format.
  for (net::NodeId to = 0; to < config_.num_replicas; ++to) {
    if (to == id_) continue;
    SendMsg(to, kNewView, payload);
  }
  InstallNewView(new_view, reproposals);
}

void PbftReplica::HandleNewView(const net::Message& msg) {
  auto decoded = DecodeViewChange(msg.payload);
  if (!decoded.ok()) return;
  uint64_t new_view = decoded->first;
  if (new_view <= view_ && !(new_view == view_ && view_changing_)) return;
  if (msg.from != new_view % config_.num_replicas) return;
  InstallNewView(new_view, decoded->second);
}

void PbftReplica::InstallNewView(uint64_t new_view,
                                 const std::vector<PreparedEntry>& entries) {
  view_ = new_view;
  view_changing_ = false;
  // Deferred requests are still in pending_requests_; the new primary
  // re-proposes them below, so drop the stale per-view queue.
  deferred_.clear();
  for (auto& [digest, request] : pending_requests_) request.deferred = false;
  // Re-run the protocol for carried-over prepared entries in the new view.
  for (const PreparedEntry& e : entries) {
    SlotState& slot = Slot(e.seq);
    if (slot.executed) continue;
    Bytes digest = DigestOf(e.command);
    slot.view = new_view;
    slot.digest = digest;
    slot.command = e.command;
    slot.pre_prepared = true;
    slot.sent_commit = false;
    slot.prepares[digest].insert(id_);
    if (e.seq >= next_seq_) next_seq_ = e.seq + 1;
    for (net::NodeId to = 0; to < config_.num_replicas; ++to) {
      if (to == id_) continue;
      SendMsg(to, kPrepare, EncodeVote(new_view, e.seq, digest));
    }
  }
  // The new primary re-proposes pending requests that were never prepared.
  if (IsPrimary()) {
    for (auto& [digest, request] : pending_requests_) {
      // Executed slots are pre-prepared too.
      const bool in_log = std::any_of(log_.begin(), log_.end(), [&](auto& e) {
        return e.second.pre_prepared && e.second.digest == digest;
      });
      if (!in_log) {
        request.proposed = true;
        Propose(request.command);
      }
    }
  } else {
    // Backups re-arm timers for still-pending requests in the new view.
    for (auto& [digest, request] : pending_requests_) {
      pending_timers_.erase(digest);
      ArmRequestTimer(digest);
    }
  }
  // Replay messages that raced ahead of this installation.
  std::vector<net::Message> stashed = std::move(stashed_);
  stashed_.clear();
  for (const net::Message& msg : stashed) OnMessage(msg);
}

PbftCluster::PbftCluster(const PbftConfig& config, net::SimNetwork* net) {
  metrics_ = std::make_unique<ConsensusMetrics>(
      "pbft", std::map<uint32_t, std::string>{{kClientRequest, "client_request"},
                                              {kPrePrepare, "pre_prepare"},
                                              {kPrepare, "prepare"},
                                              {kCommit, "commit"},
                                              {kViewChange, "view_change"},
                                              {kNewView, "new_view"},
                                              {kCheckpoint, "checkpoint"},
                                              {kFetchState, "fetch_state"},
                                              {kStateResponse, "state_response"}});
  for (size_t i = 0; i < config.num_replicas; ++i) {
    auto replica = std::make_unique<PbftReplica>(
        static_cast<net::NodeId>(i), config, net);
    replica->SetMetrics(metrics_.get());
    PbftReplica* raw = replica.get();
    net::NodeId node = net->AddNode(
        [raw](const net::Message& msg) { raw->OnMessage(msg); });
    (void)node;
    replicas_.push_back(std::move(replica));
  }
}

void PbftCluster::Submit(const Bytes& command) {
  // Clients broadcast to every replica (backups arm timers; the primary
  // proposes). Delivery goes through each replica directly, which models a
  // client colocated with the cluster edge.
  for (auto& replica : replicas_) replica->OnClientRequest(command);
}

void PbftCluster::SetCommitCallback(
    std::function<void(net::NodeId, uint64_t, const Bytes&)> cb) {
  for (size_t i = 0; i < replicas_.size(); ++i) {
    replicas_[i]->SetCommitCallback([i, cb](uint64_t seq, const Bytes& cmd) {
      cb(static_cast<net::NodeId>(i), seq, cmd);
    });
  }
}

}  // namespace prever::consensus
