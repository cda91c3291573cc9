#ifndef PREVER_TESTING_SIM_RUNNER_H_
#define PREVER_TESTING_SIM_RUNNER_H_

#include <string>

#include "testing/scenario.h"

namespace prever::simtest {

/// Shared configuration for one randomized consensus scenario.
struct ConsensusSimOptions {
  size_t num_nodes = 5;
  size_t num_commands = 14;
  SimTime submit_interval = 250 * kMillisecond;
  SimTime horizon = 30 * kSecond;
  size_t max_actions = 12;
  size_t max_concurrent_crashed = 2;
  double base_drop_rate = 0.01;
  /// PBFT only: a seed-chosen replica may equivocate as primary.
  bool allow_equivocation = false;
  /// On violation, greedily minimize the fault schedule before reporting.
  bool shrink_on_failure = true;
  /// Events between expensive full-log invariant checks (cheap incremental
  /// checks still run after every event).
  size_t deep_check_every = 64;
  /// Record per-event detail (faults, submissions, applies, final state)
  /// into SimReport::trace.
  bool record_trace = true;
};

/// Outcome of one scenario (possibly after shrinking).
struct SimReport {
  bool ok = true;
  uint64_t seed = 0;
  std::string violation;    ///< First invariant violation; empty when ok.
  FaultSchedule schedule;   ///< As generated from the seed.
  FaultSchedule reduced;    ///< Minimized failing schedule (== schedule if ok).
  std::string trace;        ///< Deterministic event trace.
  size_t events = 0;        ///< Drained simulation events.
  uint64_t committed = 0;   ///< Committed/executed entries observed.
  /// SimNetwork::StatsJson() at run end: traffic totals plus fault-event
  /// counts (drops, partitions, crashes, ...) for failure triage.
  std::string net_stats;
  /// Last-N causal flight-recorder events at the failing run's end (empty
  /// when ok): which transactions were mid-flight and where they were when
  /// the invariant broke. See src/obs/tracing.h.
  std::string trace_tail;

  /// Human-readable failure report: seed, violation, reduced schedule, and
  /// the one-command repro line.
  std::string Summary(const char* protocol) const;
};

/// Runs one seed-derived Raft scenario: randomized faults, a submitting
/// client, and invariant checks (election safety, commit agreement, log
/// matching, single-copy applies) after every drained event.
SimReport RunRaftScenario(uint64_t seed, const ConsensusSimOptions& options);

/// Runs one seed-derived PBFT scenario: agreement / total order / view
/// change safety via the commit stream, with optional primary equivocation.
SimReport RunPbftScenario(uint64_t seed, const ConsensusSimOptions& options);

/// Configuration for one randomized PIPELINED-ORDERING scenario: payloads
/// flow through core::RaftOrdering / core::PbftOrdering (SubmitAsync +
/// adaptive batching + the in-flight window) while faults fire, then a
/// final Flush must commit everything. The pipeline knobs (batch size,
/// window depth, close delay) are themselves seed-derived, so a sweep
/// explores the batch x window x delay space.
struct OrderingSimOptions {
  size_t num_replicas = 5;
  size_t num_payloads = 40;
  SimTime submit_interval = 25 * kMillisecond;
  /// Fault + submission phase length (measured from scenario start, which
  /// is after initial leader election for Raft); Flush then gets
  /// core::kFlushTimeout on a fully healed network.
  SimTime horizon = 15 * kSecond;
  size_t max_actions = 8;
  size_t max_concurrent_crashed = 1;
  double base_drop_rate = 0.0;
  bool shrink_on_failure = true;
  bool record_trace = true;
};

/// Raft ordering under faults (crashes, partitions, latency/drop spikes,
/// timer skew). Checks: Flush commits every submitted payload; the
/// replica-0 ledger holds each payload exactly once (no double-execution
/// from Flush's re-submissions); all replica ledgers are digest-identical
/// on their common prefix.
SimReport RunRaftOrderingScenario(uint64_t seed,
                                  const OrderingSimOptions& options);

/// PBFT ordering under faults. Same invariants. Faults touching replica 0
/// are filtered from the schedule and the base drop rate is forced to zero:
/// PBFT here has no message retransmission and no null-request gap filling,
/// so a replica that misses an instance cannot execute past it until state
/// transfer covers the gap: when one of its request timers expires while it
/// holds 2f+1 commits for a later seq, or when f+1 peers checkpoint a full
/// interval later. A replica cut off while others execute can therefore
/// lag until the run ends — acceptable for backups (the
/// prefix-digest check still covers them) but replica 0 is the commit
/// counter Flush waits on. See DESIGN.md "Simulation testing".
SimReport RunPbftOrderingScenario(uint64_t seed,
                                  const OrderingSimOptions& options);

}  // namespace prever::simtest

#endif  // PREVER_TESTING_SIM_RUNNER_H_
