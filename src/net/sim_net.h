#ifndef PREVER_NET_SIM_NET_H_
#define PREVER_NET_SIM_NET_H_

#include <functional>
#include <map>
#include <queue>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "obs/tracing.h"

namespace prever::net {

using NodeId = uint32_t;

/// A network message between simulated nodes. `type` is protocol-defined
/// (each consensus protocol declares its own message-type enum); `payload`
/// is an opaque canonical encoding. `trace` piggybacks the sender's causal
/// trace context across the hop: SimNetwork captures it at Send and
/// reinstalls it around handler delivery, so spans opened inside a handler
/// parent to the transaction that caused the message.
struct Message {
  NodeId from = 0;
  NodeId to = 0;
  uint32_t type = 0;
  Bytes payload;
  obs::TraceContext trace;
};

/// Configuration of the simulated network fabric.
struct SimNetConfig {
  SimTime min_latency = 1 * kMillisecond;  ///< One-way delivery minimum.
  SimTime max_latency = 5 * kMillisecond;  ///< One-way delivery maximum.
  double drop_rate = 0.0;                  ///< Probability a message is lost.
  uint64_t seed = 42;                      ///< Jitter/drop randomness.
};

/// Deterministic discrete-event network simulator. Nodes register handlers;
/// Send/Broadcast enqueue deliveries at now + latency; Run() drains events
/// in timestamp order, advancing the shared simulated clock. Supports
/// partitions and message drops for fault-injection tests.
///
/// Determinism: all randomness comes from the seeded Rng, and ties in
/// delivery time break by enqueue sequence number.
class SimNetwork {
 public:
  using Handler = std::function<void(const Message&)>;

  explicit SimNetwork(SimNetConfig config = SimNetConfig());
  ~SimNetwork();

  /// Registers a node; returns its id (dense, starting at 0).
  NodeId AddNode(Handler handler);

  size_t num_nodes() const { return handlers_.size(); }
  SimTime Now() const { return clock_.Now(); }
  /// The simulated clock.
  const SimClock& clock() const { return clock_; }

  /// Queues a message for delivery (subject to drops/partitions).
  void Send(NodeId from, NodeId to, uint32_t type, const Bytes& payload);

  /// Sends to every node except `from`.
  void Broadcast(NodeId from, uint32_t type, const Bytes& payload);

  /// Schedules an arbitrary callback (protocol timer) after `delay`.
  void ScheduleAfter(SimTime delay, std::function<void()> fn);

  /// Cuts connectivity between a and b (both directions).
  void Partition(NodeId a, NodeId b);
  void Heal(NodeId a, NodeId b);
  void HealAll();

  /// Drops all traffic to/from the node (simulated crash).
  void Isolate(NodeId node);
  void Reconnect(NodeId node);

  /// Crash-stop at the fabric level: unlike Isolate, messages already in
  /// flight toward the node are discarded at delivery time, so a crashed
  /// node observes nothing sent before OR during the outage. RestartNode
  /// resumes delivery for traffic sent after the restart.
  void CrashNode(NodeId node);
  void RestartNode(NodeId node);
  bool IsCrashed(NodeId node) const { return crashed_.count(node) > 0; }

  /// Overrides the latency range for one link (both directions), modeling a
  /// slow or degraded path. Cleared per-link or all at once.
  void SetLinkLatency(NodeId a, NodeId b, SimTime min_latency,
                      SimTime max_latency);
  void ClearLinkLatency(NodeId a, NodeId b);
  void ClearLinkLatencies();

  /// Adjusts the global drop probability at runtime (loss-burst injection).
  void set_drop_rate(double rate) { config_.drop_rate = rate; }
  double drop_rate() const { return config_.drop_rate; }

  /// Scales delays of subsequently scheduled timers (ScheduleAfter), i.e.
  /// clock skew between protocol timers and network latency. 1.0 = nominal;
  /// values < 1 fire timers early, > 1 late. Delivery latency is unaffected.
  void SetTimerScale(double scale);
  double timer_scale() const { return timer_scale_; }

  /// Runs queued events until the queue is empty or `until` is reached.
  /// Returns the number of events processed.
  size_t RunUntil(SimTime until);
  size_t RunUntilIdle();

  /// Processes exactly one event if any is queued.
  bool Step();

  uint64_t messages_sent() const { return messages_sent_; }
  uint64_t messages_dropped() const { return messages_dropped_; }
  uint64_t messages_delivered() const { return messages_delivered_; }
  uint64_t bytes_sent() const { return bytes_sent_; }

  /// Fault-schedule event totals (cumulative since construction).
  struct FaultStats {
    uint64_t partitions = 0;
    uint64_t heals = 0;
    uint64_t isolates = 0;
    uint64_t reconnects = 0;
    uint64_t crashes = 0;
    uint64_t restarts = 0;
  };
  const FaultStats& fault_stats() const { return fault_stats_; }

  /// One-line JSON summary of traffic + fault counters, attached to sim-test
  /// failure output for triage.
  std::string StatsJson() const;

 private:
  struct Event {
    SimTime time;
    uint64_t seq;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  bool Blocked(NodeId a, NodeId b) const;
  SimTime SampleLatency(NodeId from, NodeId to);
  static std::pair<NodeId, NodeId> LinkKey(NodeId a, NodeId b) {
    return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
  }

  SimNetConfig config_;
  Rng rng_;
  SimClock clock_;
  std::vector<Handler> handlers_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  uint64_t next_seq_ = 0;
  std::set<std::pair<NodeId, NodeId>> partitions_;
  std::set<NodeId> isolated_;
  std::set<NodeId> crashed_;
  std::map<std::pair<NodeId, NodeId>, std::pair<SimTime, SimTime>>
      link_latency_;
  double timer_scale_ = 1.0;
  uint64_t messages_sent_ = 0;
  uint64_t messages_dropped_ = 0;
  uint64_t messages_delivered_ = 0;
  uint64_t bytes_sent_ = 0;
  FaultStats fault_stats_;
};

}  // namespace prever::net

#endif  // PREVER_NET_SIM_NET_H_
