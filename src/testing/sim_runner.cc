#include "testing/sim_runner.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "core/ordering.h"
#include "obs/tracing.h"
#include "testing/invariants.h"

namespace prever::simtest {

namespace {

std::string Preview(const Bytes& b) {
  std::string s;
  for (size_t i = 0; i < b.size() && i < 24; ++i) {
    char c = static_cast<char>(b[i]);
    s += (c >= 32 && c < 127) ? c : '?';
  }
  return s;
}

std::string T(SimTime t) { return std::to_string(t); }

struct RunOutcome {
  bool ok = true;
  std::string violation;
  size_t events = 0;
  uint64_t committed = 0;
  std::string trace;
  std::string net_stats;
};

ScenarioOptions ScenarioOptionsFor(const ConsensusSimOptions& o) {
  ScenarioOptions s;
  s.num_nodes = o.num_nodes;
  s.horizon = o.horizon;
  s.max_actions = o.max_actions;
  s.max_concurrent_crashed = o.max_concurrent_crashed;
  s.base_drop_rate = o.base_drop_rate;
  return s;
}

Bytes CommandBytes(size_t i) {
  return ToBytes("cmd-" + std::to_string(i));
}

// ------------------------------------------------------------------- Raft

RunOutcome RunRaftOnce(uint64_t seed, const FaultSchedule& schedule,
                       const ConsensusSimOptions& o, bool record_trace) {
  RunOutcome out;
  std::string* tr = record_trace ? &out.trace : nullptr;

  net::SimNetConfig ncfg;
  ncfg.drop_rate = o.base_drop_rate;
  ncfg.seed = seed ^ 0xC0FFEEULL;
  net::SimNetwork net(ncfg);

  consensus::RaftConfig rcfg;
  rcfg.num_replicas = o.num_nodes;
  rcfg.seed = seed * 31 + 7;
  consensus::RaftCluster cluster(rcfg, &net);

  RaftInvariantChecker checker(&cluster);
  SingleCopyChecker applies(o.num_nodes);
  std::set<Bytes> submitted;
  std::set<Bytes> applied_cmds;
  std::string async_violation;

  for (size_t i = 0; i < o.num_nodes; ++i) {
    cluster.replica(i).SetApplyCallback(
        [&, i](uint64_t index, const Bytes& cmd) {
          applied_cmds.insert(cmd);
          Status s = applies.Observe(i, index - 1, cmd);
          if (!s.ok() && async_violation.empty()) {
            async_violation = s.message();
          }
          if (tr != nullptr) {
            *tr += "t=" + T(net.Now()) + " apply r=" + std::to_string(i) +
                   " idx=" + std::to_string(index) + " cmd=" + Preview(cmd) +
                   "\n";
          }
        });
  }

  FaultHooks hooks;
  hooks.crash = [&](net::NodeId id) { cluster.replica(id).Crash(); };
  hooks.restart = [&](net::NodeId id) { cluster.replica(id).Restart(); };
  InstallSchedule(&net, schedule, hooks, tr);

  // Client: submits the next command whenever a leader accepts it. Once all
  // commands were accepted, it keeps re-driving the lowest unapplied command
  // — an entry accepted by a deposed leader only commits once a
  // current-term entry lands on top of it (Raft §5.4.2), so the pump must
  // not go quiet before everything applied.
  size_t next_cmd = 0;
  std::function<void()> pump = [&] {
    if (net.Now() > o.horizon) return;
    Bytes cmd;
    if (next_cmd < o.num_commands) {
      cmd = CommandBytes(next_cmd);
    } else {
      for (size_t i = 0; i < o.num_commands; ++i) {
        Bytes candidate = CommandBytes(i);
        if (applied_cmds.count(candidate) == 0) {
          cmd = candidate;
          break;
        }
      }
      if (cmd.empty()) return;  // Everything applied; client done.
    }
    auto leader = cluster.Leader();
    if (leader.ok() && (*leader)->Submit(cmd).ok()) {
      submitted.insert(cmd);
      if (tr != nullptr) {
        *tr += "t=" + T(net.Now()) + " submit " + Preview(cmd) + " via r=" +
               std::to_string((*leader)->id()) + "\n";
      }
      if (next_cmd < o.num_commands) ++next_cmd;
    }
    net.ScheduleAfter(o.submit_interval, pump);
  };
  net.ScheduleAfter(o.submit_interval, pump);

  auto fail = [&](const std::string& why) {
    out.ok = false;
    out.violation = why;
    if (tr != nullptr) {
      *tr += "t=" + T(net.Now()) + " VIOLATION " + why + "\n";
    }
  };

  while (net.Step()) {
    if (net.Now() > o.horizon) break;
    ++out.events;
    if (!async_violation.empty()) {
      fail(async_violation);
      break;
    }
    Status s = checker.CheckStep();
    if (s.ok() && o.deep_check_every != 0 &&
        out.events % o.deep_check_every == 0) {
      s = checker.CheckLogMatching();
    }
    if (!s.ok()) {
      fail(s.message());
      break;
    }
  }

  if (out.ok) {
    Status s = checker.CheckStep();
    if (s.ok()) s = checker.CheckLogMatching();
    if (s.ok()) s = applies.CheckProvenance(submitted);
    if (!s.ok()) fail(s.message());
  }
  out.committed = checker.max_commit_index();
  if (out.ok && out.committed == 0) {
    fail("liveness stall: no command committed over the whole horizon");
  }
  if (out.ok && applies.history().size() != out.committed) {
    fail("apply/commit mismatch: " +
         std::to_string(applies.history().size()) + " applied vs commit " +
         "index " + std::to_string(out.committed));
  }

  if (tr != nullptr) {
    for (size_t i = 0; i < o.num_nodes; ++i) {
      consensus::RaftReplica& r = cluster.replica(i);
      *tr += "final r=" + std::to_string(i) +
             " role=" + std::to_string(static_cast<int>(r.role())) +
             " term=" + std::to_string(r.term()) +
             " commit=" + std::to_string(r.commit_index()) +
             " log=" + std::to_string(r.log_size()) +
             " applied=" + std::to_string(applies.executed(i)) + "\n";
    }
    *tr += "final events=" + std::to_string(out.events) +
           " sent=" + std::to_string(net.messages_sent()) +
           " dropped=" + std::to_string(net.messages_dropped()) + "\n";
  }
  out.net_stats = net.StatsJson();
  return out;
}

// ------------------------------------------------------------------- PBFT

RunOutcome RunPbftOnce(uint64_t seed, const FaultSchedule& schedule,
                       const ConsensusSimOptions& o, bool record_trace) {
  RunOutcome out;
  std::string* tr = record_trace ? &out.trace : nullptr;

  net::SimNetConfig ncfg;
  ncfg.drop_rate = o.base_drop_rate;
  ncfg.seed = seed ^ 0xFACADEULL;
  net::SimNetwork net(ncfg);

  consensus::PbftConfig pcfg;
  pcfg.num_replicas = o.num_nodes;
  pcfg.view_change_timeout = 150 * kMillisecond;
  consensus::PbftCluster cluster(pcfg, &net);

  // A seed-chosen replica may equivocate when it holds the primary role —
  // at most one, i.e. within the f = (n-1)/3 fault budget for n >= 4.
  const bool equivocate = o.allow_equivocation && (seed % 3 == 0);
  const net::NodeId equivocator =
      static_cast<net::NodeId>(seed / 3 % o.num_nodes);
  if (equivocate) {
    cluster.replica(equivocator)
        .SetFaultMode(consensus::PbftFaultMode::kEquivocate);
    if (tr != nullptr) {
      *tr += "equivocator r=" + std::to_string(equivocator) + "\n";
    }
  }

  PbftInvariantChecker checker(&cluster, equivocate);
  std::set<Bytes> submitted;
  std::set<Bytes> executed_cmds;
  cluster.SetCommitCallback(
      [&](net::NodeId replica, uint64_t seq, const Bytes& cmd) {
        checker.OnCommit(replica, seq, cmd);
        executed_cmds.insert(cmd);
        if (tr != nullptr) {
          *tr += "t=" + T(net.Now()) + " commit r=" + std::to_string(replica) +
                 " seq=" + std::to_string(seq) + " cmd=" + Preview(cmd) + "\n";
        }
      });

  FaultHooks hooks;
  hooks.crash = [&](net::NodeId id) {
    cluster.replica(id).SetFaultMode(consensus::PbftFaultMode::kSilent);
  };
  hooks.restart = [&](net::NodeId id) {
    cluster.replica(id).SetFaultMode(
        equivocate && id == equivocator
            ? consensus::PbftFaultMode::kEquivocate
            : consensus::PbftFaultMode::kHonest);
  };
  InstallSchedule(&net, schedule, hooks, tr);

  // Client: submit each command once, then keep re-broadcasting the lowest
  // unexecuted command so the run makes progress once the quiet tail
  // begins (a primary proposes a pending request once).
  size_t sent = 0;
  std::function<void()> pump = [&] {
    if (net.Now() > o.horizon) return;
    if (sent < o.num_commands) {
      Bytes cmd = CommandBytes(sent);
      submitted.insert(cmd);
      cluster.Submit(cmd);
      if (tr != nullptr) {
        *tr += "t=" + T(net.Now()) + " submit " + Preview(cmd) + "\n";
      }
      ++sent;
    } else {
      for (size_t i = 0; i < o.num_commands; ++i) {
        Bytes cmd = CommandBytes(i);
        if (executed_cmds.count(cmd) == 0) {
          cluster.Submit(cmd);
          break;
        }
      }
    }
    net.ScheduleAfter(o.submit_interval, pump);
  };
  net.ScheduleAfter(o.submit_interval, pump);

  auto fail = [&](const std::string& why) {
    out.ok = false;
    out.violation = why;
    if (tr != nullptr) {
      *tr += "t=" + T(net.Now()) + " VIOLATION " + why + "\n";
    }
  };

  while (net.Step()) {
    if (net.Now() > o.horizon) break;
    ++out.events;
    Status s = checker.CheckStep();
    if (!s.ok()) {
      fail(s.message());
      break;
    }
  }

  if (out.ok) {
    Status s = checker.CheckStep();
    if (s.ok()) s = checker.CheckProvenance(submitted);
    if (!s.ok()) fail(s.message());
  }
  out.committed = checker.single_copy().history().size();
  // The liveness floor only applies to honest-primary scenarios: this PBFT's
  // simplified view change has no null-request gap filling, so a cluster
  // whose primary equivocates can wedge on a stale never-prepared slot.
  // Safety (agreement, total order, no rollback) is still fully checked
  // above; see DESIGN.md "Simulation testing" for the limitation.
  if (out.ok && out.committed == 0 && !equivocate) {
    fail("liveness stall: no command executed over the whole horizon");
  }

  if (tr != nullptr) {
    for (size_t i = 0; i < o.num_nodes; ++i) {
      consensus::PbftReplica& r = cluster.replica(i);
      *tr += "final r=" + std::to_string(i) +
             " view=" + std::to_string(r.view()) +
             " executed=" + std::to_string(r.num_executed()) + "\n";
    }
    *tr += "final events=" + std::to_string(out.events) +
           " sent=" + std::to_string(net.messages_sent()) +
           " dropped=" + std::to_string(net.messages_dropped()) + "\n";
  }
  out.net_stats = net.StatsJson();
  return out;
}

// ------------------------------------------- Pipelined ordering scenarios

ScenarioOptions ScenarioOptionsFor(const OrderingSimOptions& o) {
  ScenarioOptions s;
  s.num_nodes = o.num_replicas;
  s.horizon = o.horizon;
  s.max_actions = o.max_actions;
  s.max_concurrent_crashed = o.max_concurrent_crashed;
  s.base_drop_rate = o.base_drop_rate;
  return s;
}

Bytes PayloadBytes(size_t i) { return ToBytes("pay-" + std::to_string(i)); }

/// Seed-derived pipeline knobs: the sweep explores batch x window x delay.
core::OrderingPipelineConfig PipelineFor(uint64_t seed) {
  static constexpr size_t kBatches[] = {1, 4, 16, 64};
  static constexpr size_t kWindows[] = {1, 2, 4, 8};
  static constexpr SimTime kDelays[] = {1 * kMillisecond, 3 * kMillisecond,
                                        10 * kMillisecond};
  core::OrderingPipelineConfig p;
  p.max_batch = kBatches[seed % 4];
  p.max_inflight = kWindows[(seed / 4) % 4];
  p.max_delay = kDelays[(seed / 16) % 3];
  return p;
}

/// Post-Flush ledger invariants shared by the Raft and PBFT ordering runs:
/// every submitted payload exactly once in the replica-0 ledger, no
/// duplicates in any replica ledger, and digest-identical common prefixes.
template <typename LedgerAt>
Status CheckOrderingLedgers(size_t num_replicas, size_t num_payloads,
                            uint64_t committed, const LedgerAt& ledger_at) {
  if (committed != num_payloads) {
    return Status::Internal("committed " + std::to_string(committed) +
                            " != submitted " + std::to_string(num_payloads));
  }
  const ledger::LedgerDb& first = ledger_at(0);
  if (first.size() != num_payloads) {
    return Status::Internal("replica-0 ledger has " +
                            std::to_string(first.size()) + " entries, want " +
                            std::to_string(num_payloads));
  }
  std::map<Bytes, size_t> counts;
  for (uint64_t i = 0; i < first.size(); ++i) {
    PREVER_ASSIGN_OR_RETURN(ledger::LedgerEntry e, first.GetEntry(i));
    ++counts[e.payload];
  }
  for (size_t i = 0; i < num_payloads; ++i) {
    auto it = counts.find(PayloadBytes(i));
    size_t n = it == counts.end() ? 0 : it->second;
    if (n != 1) {
      return Status::Internal("payload " + std::to_string(i) + " appears " +
                              std::to_string(n) + " times in replica-0 "
                              "ledger (double execution or loss)");
    }
  }
  uint64_t prefix = first.size();
  for (size_t r = 1; r < num_replicas; ++r) {
    prefix = std::min<uint64_t>(prefix, ledger_at(r).size());
  }
  PREVER_ASSIGN_OR_RETURN(ledger::LedgerDigest want, first.DigestAt(prefix));
  for (size_t r = 1; r < num_replicas; ++r) {
    const ledger::LedgerDb& db = ledger_at(r);
    std::set<Bytes> seen;
    for (uint64_t i = 0; i < db.size(); ++i) {
      PREVER_ASSIGN_OR_RETURN(ledger::LedgerEntry e, db.GetEntry(i));
      if (!seen.insert(e.payload).second) {
        return Status::Internal("replica " + std::to_string(r) +
                                " ledger holds a duplicate payload");
      }
    }
    PREVER_ASSIGN_OR_RETURN(ledger::LedgerDigest got, db.DigestAt(prefix));
    if (!(got == want)) {
      return Status::Internal(
          "replica " + std::to_string(r) +
          " ledger digest diverges from replica 0 at prefix " +
          std::to_string(prefix));
    }
  }
  return Status::Ok();
}

/// Drives one ordering service through a fault schedule: paced SubmitAsync
/// submissions over the horizon, then full repair, then Flush + invariants.
template <typename Ordering, typename LedgerAt>
RunOutcome RunOrderingOnce(Ordering& ordering, net::SimNetwork& net,
                           const FaultSchedule& schedule,
                           const FaultHooks& hooks,
                           const OrderingSimOptions& o,
                           const std::set<net::NodeId>* crashed,
                           const std::function<void(net::NodeId)>& revive,
                           const LedgerAt& ledger_at, bool record_trace) {
  RunOutcome out;
  std::string* tr = record_trace ? &out.trace : nullptr;
  InstallSchedule(&net, schedule, hooks, tr);

  const SimTime start = net.Now();
  size_t sent = 0;
  std::function<void()> pump = [&] {
    if (sent >= o.num_payloads || net.Now() > start + o.horizon) return;
    (void)ordering.SubmitAsync(PayloadBytes(sent), net.Now());
    if (tr != nullptr) {
      *tr += "t=" + T(net.Now()) + " submit pay-" + std::to_string(sent) +
             "\n";
    }
    ++sent;
    net.ScheduleAfter(o.submit_interval, pump);
  };
  net.ScheduleAfter(o.submit_interval, pump);

  while (net.Step()) {
    if (net.Now() > start + o.horizon) break;
    ++out.events;
  }
  // Submit any payloads the horizon cut off, then repair the world so Flush
  // measures recovery, not a dead cluster (shrinking can orphan an opening
  // fault from its closing action).
  for (; sent < o.num_payloads; ++sent) {
    (void)ordering.SubmitAsync(PayloadBytes(sent), net.Now());
  }
  net.HealAll();
  net.ClearLinkLatencies();
  net.set_drop_rate(o.base_drop_rate);
  net.SetTimerScale(1.0);
  for (net::NodeId id : *crashed) {
    net.RestartNode(id);
    revive(id);
  }
  Status flushed = ordering.Flush();
  if (!flushed.ok()) {
    out.ok = false;
    out.violation = "Flush failed: " + flushed.message();
  } else {
    Status s = CheckOrderingLedgers(o.num_replicas, o.num_payloads,
                                    ordering.CommittedCount(), ledger_at);
    if (!s.ok()) {
      out.ok = false;
      out.violation = s.message();
    }
  }
  out.committed = ordering.CommittedCount();
  if (tr != nullptr) {
    *tr += "final committed=" + std::to_string(out.committed) +
           " events=" + std::to_string(out.events) + "\n";
    if (!out.ok) *tr += "VIOLATION " + out.violation + "\n";
  }
  out.net_stats = net.StatsJson();
  return out;
}

RunOutcome RunRaftOrderingOnce(uint64_t seed, const FaultSchedule& schedule,
                               const OrderingSimOptions& o,
                               bool record_trace) {
  net::SimNetConfig ncfg;
  ncfg.drop_rate = o.base_drop_rate;
  ncfg.seed = seed ^ 0xC0FFEEULL;
  core::RaftOrdering ordering(o.num_replicas, ncfg, PipelineFor(seed));

  std::set<net::NodeId> crashed;
  FaultHooks hooks;
  hooks.crash = [&](net::NodeId id) {
    ordering.cluster().replica(id).Crash();
    crashed.insert(id);
  };
  hooks.restart = [&](net::NodeId id) {
    ordering.cluster().replica(id).Restart();
    crashed.erase(id);
  };
  auto revive = [&](net::NodeId id) {
    ordering.cluster().replica(id).Restart();
  };
  auto ledger_at = [&](size_t r) -> const ledger::LedgerDb& {
    return ordering.ReplicaLedger(r);
  };
  return RunOrderingOnce(ordering, ordering.network(), schedule, hooks, o,
                         &crashed, revive, ledger_at, record_trace);
}

RunOutcome RunPbftOrderingOnce(uint64_t seed, const FaultSchedule& schedule,
                               const OrderingSimOptions& o,
                               bool record_trace) {
  net::SimNetConfig ncfg;
  ncfg.drop_rate = 0.0;  // No retransmission layer: see header comment.
  ncfg.seed = seed ^ 0xFACADEULL;
  core::PbftOrdering ordering(o.num_replicas, ncfg, "pbft-sim",
                              PipelineFor(seed));

  // Replica 0 is the commit counter Flush waits on; with no retransmission
  // or gap filling it must see every instance, so faults touching it are
  // filtered.
  FaultSchedule filtered = schedule;
  filtered.actions.erase(
      std::remove_if(filtered.actions.begin(), filtered.actions.end(),
                     [](const FaultAction& a) {
                       switch (a.kind) {
                         case FaultKind::kCrash:
                         case FaultKind::kRestart:
                           return a.a == 0;
                         case FaultKind::kPartition:
                         case FaultKind::kHeal:
                         case FaultKind::kLatencySpike:
                         case FaultKind::kLatencyClear:
                           return a.a == 0 || a.b == 0;
                         case FaultKind::kDropSpike:
                           return true;  // Drops hit replica 0 like any other.
                         default:
                           return false;
                       }
                     }),
      filtered.actions.end());

  std::set<net::NodeId> crashed;
  FaultHooks hooks;
  hooks.crash = [&](net::NodeId id) {
    ordering.cluster().replica(id).SetFaultMode(
        consensus::PbftFaultMode::kSilent);
    crashed.insert(id);
  };
  hooks.restart = [&](net::NodeId id) {
    ordering.cluster().replica(id).SetFaultMode(
        consensus::PbftFaultMode::kHonest);
    crashed.erase(id);
  };
  auto revive = [&](net::NodeId id) {
    ordering.cluster().replica(id).SetFaultMode(
        consensus::PbftFaultMode::kHonest);
  };
  auto ledger_at = [&](size_t r) -> const ledger::LedgerDb& {
    return ordering.ReplicaLedger(r);
  };
  return RunOrderingOnce(ordering, ordering.network(), filtered, hooks, o,
                         &crashed, revive, ledger_at, record_trace);
}

// ------------------------------------------------------- Shrink + report

using RunFn = std::function<RunOutcome(const FaultSchedule&, bool record)>;

/// Scenario-scoped causal tracing: sample every transaction into a small
/// flight-recorder ring so a failing run's report can show the last events
/// (which payloads were mid-flight and at which stage when the invariant
/// broke). Disabled again on scope exit so surrounding tests pay nothing.
class ScopedScenarioTracing {
 public:
  ScopedScenarioTracing() {
    obs::TracerConfig cfg;
    cfg.enabled = true;
    cfg.sample_period = 1;
    cfg.ring_capacity = 512;
    // Consensus-only scenarios never mint engine submit roots, so let the
    // sim network root each message — the tail stays populated either way.
    cfg.trace_unrooted_messages = true;
    obs::Tracer::Get().Configure(cfg);
  }
  ~ScopedScenarioTracing() { obs::Tracer::Get().SetEnabled(false); }
  std::string Tail() const { return obs::Tracer::Get().TailString(32); }
};

SimReport RunWithShrink(uint64_t seed, const ConsensusSimOptions& o,
                        const RunFn& run_once) {
  ScenarioGenerator generator(ScenarioOptionsFor(o));
  SimReport report;
  report.seed = seed;
  report.schedule = generator.Generate(seed);
  report.reduced = report.schedule;

  ScopedScenarioTracing tracing;
  RunOutcome out = run_once(report.schedule, o.record_trace);
  report.ok = out.ok;
  report.violation = out.violation;
  report.trace = out.trace;
  report.events = out.events;
  report.committed = out.committed;
  report.net_stats = out.net_stats;
  if (!out.ok) report.trace_tail = tracing.Tail();
  if (out.ok || !o.shrink_on_failure) return report;

  // Greedy delta-debugging: drop one action at a time while the violation
  // persists. Deterministic replays make this sound.
  bool improved = true;
  while (improved) {
    improved = false;
    for (size_t i = 0; i < report.reduced.actions.size(); ++i) {
      FaultSchedule candidate = report.reduced;
      candidate.actions.erase(candidate.actions.begin() +
                              static_cast<ptrdiff_t>(i));
      RunOutcome r = run_once(candidate, false);
      if (!r.ok) {
        report.reduced = candidate;
        report.violation = r.violation;
        improved = true;
        break;
      }
    }
  }
  return report;
}

}  // namespace

std::string SimReport::Summary(const char* protocol) const {
  if (ok) {
    return std::string(protocol) + " seed=" + std::to_string(seed) +
           " ok events=" + std::to_string(events) +
           " committed=" + std::to_string(committed);
  }
  std::string s = std::string(protocol) + " scenario FAILED\n";
  s += "  seed: " + std::to_string(seed) + "\n";
  s += "  violation: " + violation + "\n";
  if (!net_stats.empty()) s += "  net: " + net_stats + "\n";
  s += "  reduced schedule (" + std::to_string(reduced.actions.size()) +
       " of " + std::to_string(schedule.actions.size()) + " actions):\n";
  for (const FaultAction& a : reduced.actions) {
    s += "    " + a.ToString() + "\n";
  }
  if (!trace_tail.empty()) {
    s += "  flight recorder tail (last causal events before the violation):\n";
    s += trace_tail;
  }
  s += "  replay: PREVER_SIM_SEED=" + std::to_string(seed) +
       " ./tests/sim_consensus_test --gtest_filter='*" + protocol + "*'\n";
  return s;
}

namespace {

SimReport RunOrderingWithShrink(uint64_t seed, const OrderingSimOptions& o,
                                const RunFn& run_once) {
  ScenarioGenerator generator(ScenarioOptionsFor(o));
  SimReport report;
  report.seed = seed;
  report.schedule = generator.Generate(seed);
  report.reduced = report.schedule;

  ScopedScenarioTracing tracing;
  RunOutcome out = run_once(report.schedule, o.record_trace);
  report.ok = out.ok;
  report.violation = out.violation;
  report.trace = out.trace;
  report.events = out.events;
  report.committed = out.committed;
  report.net_stats = out.net_stats;
  if (!out.ok) report.trace_tail = tracing.Tail();
  if (out.ok || !o.shrink_on_failure) return report;

  bool improved = true;
  while (improved) {
    improved = false;
    for (size_t i = 0; i < report.reduced.actions.size(); ++i) {
      FaultSchedule candidate = report.reduced;
      candidate.actions.erase(candidate.actions.begin() +
                              static_cast<ptrdiff_t>(i));
      RunOutcome r = run_once(candidate, false);
      if (!r.ok) {
        report.reduced = candidate;
        report.violation = r.violation;
        improved = true;
        break;
      }
    }
  }
  return report;
}

}  // namespace

SimReport RunRaftOrderingScenario(uint64_t seed,
                                  const OrderingSimOptions& options) {
  return RunOrderingWithShrink(
      seed, options, [&](const FaultSchedule& schedule, bool record) {
        return RunRaftOrderingOnce(seed, schedule, options, record);
      });
}

SimReport RunPbftOrderingScenario(uint64_t seed,
                                  const OrderingSimOptions& options) {
  return RunOrderingWithShrink(
      seed, options, [&](const FaultSchedule& schedule, bool record) {
        return RunPbftOrderingOnce(seed, schedule, options, record);
      });
}

SimReport RunRaftScenario(uint64_t seed, const ConsensusSimOptions& options) {
  return RunWithShrink(seed, options,
                       [&](const FaultSchedule& schedule, bool record) {
                         return RunRaftOnce(seed, schedule, options, record);
                       });
}

SimReport RunPbftScenario(uint64_t seed, const ConsensusSimOptions& options) {
  return RunWithShrink(seed, options,
                       [&](const FaultSchedule& schedule, bool record) {
                         return RunPbftOnce(seed, schedule, options, record);
                       });
}

}  // namespace prever::simtest
