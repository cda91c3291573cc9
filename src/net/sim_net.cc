#include "net/sim_net.h"

#include "obs/json.h"
#include "obs/registry.h"

namespace prever::net {

namespace {

/// Process-global mirrors in the default registry so bench JSON blobs report
/// fabric traffic. Per-instance figures stay in the SimNetwork members.
struct NetCounters {
  obs::Counter* sent;
  obs::Counter* dropped;
  obs::Counter* delivered;
  obs::Counter* partitions;
  obs::Counter* crashes;

  static NetCounters& Get() {
    static NetCounters c = [] {
      obs::Registry& r = obs::Registry::Default();
      return NetCounters{
          r.GetCounter("prever_net_msgs_total", {{"outcome", "sent"}}),
          r.GetCounter("prever_net_msgs_total", {{"outcome", "dropped"}}),
          r.GetCounter("prever_net_msgs_total", {{"outcome", "delivered"}}),
          r.GetCounter("prever_net_fault_events_total",
                       {{"kind", "partition"}}),
          r.GetCounter("prever_net_fault_events_total", {{"kind", "crash"}}),
      };
    }();
    return c;
  }
};

}  // namespace

SimNetwork::SimNetwork(SimNetConfig config)
    : config_(config), rng_(config.seed) {}

SimNetwork::~SimNetwork() { obs::Tracer::ForgetThreadSimClock(&clock_); }

NodeId SimNetwork::AddNode(Handler handler) {
  handlers_.push_back(std::move(handler));
  return static_cast<NodeId>(handlers_.size() - 1);
}

bool SimNetwork::Blocked(NodeId a, NodeId b) const {
  if (isolated_.count(a) || isolated_.count(b)) return true;
  if (crashed_.count(a) || crashed_.count(b)) return true;
  return partitions_.count(LinkKey(a, b)) > 0;
}

SimTime SimNetwork::SampleLatency(NodeId from, NodeId to) {
  SimTime lo = config_.min_latency;
  SimTime hi = config_.max_latency;
  auto it = link_latency_.find(LinkKey(from, to));
  if (it != link_latency_.end()) {
    lo = it->second.first;
    hi = it->second.second;
  }
  if (hi <= lo) return lo;
  return lo + rng_.NextBelow(hi - lo + 1);
}

void SimNetwork::Send(NodeId from, NodeId to, uint32_t type,
                      const Bytes& payload) {
  ++messages_sent_;
  NetCounters::Get().sent->Inc();
  bytes_sent_ += payload.size();
  if (to >= handlers_.size()) return;
  if (Blocked(from, to) || rng_.NextBool(config_.drop_rate)) {
    ++messages_dropped_;
    NetCounters::Get().dropped->Inc();
    return;
  }
  Message msg{from, to, type, payload, obs::Tracer::CurrentContext()};
  obs::Tracer& tracer = obs::Tracer::Get();
  if (!msg.trace.sampled() && tracer.trace_unrooted_messages()) {
    // Sim-harness forensics: pure consensus scenarios have no engine submit
    // roots, so mint a per-message root here — otherwise every hop instant
    // is dropped as unsampled and failure-report tails come back empty.
    msg.trace = tracer.MintTrace();
  }
  tracer.Instant(msg.trace, obs::TraceStage::kNetSend, type);
  SimTime deliver_at = clock_.Now() + SampleLatency(from, to);
  queue_.push(Event{deliver_at, next_seq_++, [this, msg = std::move(msg)]() {
                      // Dropped at delivery time if the target crashed while
                      // the message was in flight.
                      if (crashed_.count(msg.to)) {
                        ++messages_dropped_;
                        NetCounters::Get().dropped->Inc();
                        return;
                      }
                      ++messages_delivered_;
                      NetCounters::Get().delivered->Inc();
                      // Reinstall the sender's causal context for the
                      // handler: spans it opens parent across the hop.
                      obs::ScopedTraceContext hop(msg.trace);
                      obs::Tracer::Get().Instant(
                          msg.trace, obs::TraceStage::kNetDeliver, msg.type);
                      handlers_[msg.to](msg);
                    }});
}

void SimNetwork::Broadcast(NodeId from, uint32_t type, const Bytes& payload) {
  for (NodeId to = 0; to < handlers_.size(); ++to) {
    if (to != from) Send(from, to, type, payload);
  }
}

void SimNetwork::ScheduleAfter(SimTime delay, std::function<void()> fn) {
  if (timer_scale_ != 1.0) {
    delay = static_cast<SimTime>(static_cast<double>(delay) * timer_scale_);
  }
  queue_.push(Event{clock_.Now() + delay, next_seq_++, std::move(fn)});
}

void SimNetwork::Partition(NodeId a, NodeId b) {
  partitions_.insert(a < b ? std::make_pair(a, b) : std::make_pair(b, a));
  ++fault_stats_.partitions;
  NetCounters::Get().partitions->Inc();
}

void SimNetwork::Heal(NodeId a, NodeId b) {
  partitions_.erase(a < b ? std::make_pair(a, b) : std::make_pair(b, a));
  ++fault_stats_.heals;
}

void SimNetwork::HealAll() {
  partitions_.clear();
  ++fault_stats_.heals;
}

void SimNetwork::Isolate(NodeId node) {
  isolated_.insert(node);
  ++fault_stats_.isolates;
}

void SimNetwork::Reconnect(NodeId node) {
  isolated_.erase(node);
  ++fault_stats_.reconnects;
}

void SimNetwork::CrashNode(NodeId node) {
  crashed_.insert(node);
  ++fault_stats_.crashes;
  NetCounters::Get().crashes->Inc();
}

void SimNetwork::RestartNode(NodeId node) {
  crashed_.erase(node);
  ++fault_stats_.restarts;
}

void SimNetwork::SetLinkLatency(NodeId a, NodeId b, SimTime min_latency,
                                SimTime max_latency) {
  link_latency_[LinkKey(a, b)] = {min_latency, max_latency};
}

void SimNetwork::ClearLinkLatency(NodeId a, NodeId b) {
  link_latency_.erase(LinkKey(a, b));
}

void SimNetwork::ClearLinkLatencies() { link_latency_.clear(); }

void SimNetwork::SetTimerScale(double scale) {
  timer_scale_ = scale > 0.0 ? scale : 1.0;
}

bool SimNetwork::Step() {
  if (queue_.empty()) return false;
  // Flight-recorder records made while this event runs carry our simulated
  // clock as their second timestamp.
  obs::Tracer::SetThreadSimClock(&clock_);
  Event ev = queue_.top();
  queue_.pop();
  clock_.AdvanceTo(ev.time);
  ev.fn();
  return true;
}

size_t SimNetwork::RunUntil(SimTime until) {
  size_t processed = 0;
  while (!queue_.empty() && queue_.top().time <= until) {
    Step();
    ++processed;
  }
  clock_.AdvanceTo(until);
  return processed;
}

size_t SimNetwork::RunUntilIdle() {
  size_t processed = 0;
  while (Step()) ++processed;
  return processed;
}

std::string SimNetwork::StatsJson() const {
  obs::Json doc = obs::Json::Object();
  doc.Set("msgs_sent", obs::Json::Int(messages_sent_));
  doc.Set("msgs_dropped", obs::Json::Int(messages_dropped_));
  doc.Set("msgs_delivered", obs::Json::Int(messages_delivered_));
  doc.Set("bytes_sent", obs::Json::Int(bytes_sent_));
  doc.Set("partitions", obs::Json::Int(fault_stats_.partitions));
  doc.Set("heals", obs::Json::Int(fault_stats_.heals));
  doc.Set("isolates", obs::Json::Int(fault_stats_.isolates));
  doc.Set("reconnects", obs::Json::Int(fault_stats_.reconnects));
  doc.Set("crashes", obs::Json::Int(fault_stats_.crashes));
  doc.Set("restarts", obs::Json::Int(fault_stats_.restarts));
  doc.Set("now_us", obs::Json::Int(clock_.Now()));
  return doc.Dump();
}

}  // namespace prever::net
