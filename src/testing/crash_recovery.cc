#include "testing/crash_recovery.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include "common/rng.h"
#include "core/ordering.h"
#include "obs/registry.h"

namespace prever::simtest {

namespace {

namespace fs = std::filesystem;

/// One scheduled kill: after committing payload `at`, replica `victim` dies
/// at `point`; it restarts once `recover_at` payloads have been submitted.
struct CrashEvent {
  size_t at = 0;
  size_t recover_at = 0;
  size_t victim = 0;
  CrashPoint point = CrashPoint::kClean;
};

/// Newest final checkpoint file in `dir` (ids are fixed-width hex, so name
/// order is id order); empty when there is none.
std::string NewestCheckpoint(const std::string& dir) {
  std::string newest;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("ckpt-", 0) == 0 && entry.path().extension() == ".ckpt") {
      newest = std::max(newest, name);
    }
  }
  return newest;
}

/// Mutilates a victim's durable files (ReplicatedOrdering's layout under
/// `replica_dir`) exactly as a kill at `point` would.
void ApplyCrashDamage(const std::string& replica_dir, CrashPoint point,
                      Rng& rng, std::string* trace) {
  const std::string journal = replica_dir + "/journal.wal";
  const std::string checkpoints = replica_dir + "/ckpt";
  std::error_code ec;
  switch (point) {
    case CrashPoint::kClean:
      break;
    case CrashPoint::kMidWalAppend: {
      // A torn final journal record: the kill landed mid-fwrite. Recovery
      // must keep the clean prefix and the consensus layer re-delivers the
      // lost tail.
      auto size = fs::file_size(journal, ec);
      if (!ec && size > 0) {
        uint64_t cut = 1 + rng.NextBelow(std::min<uint64_t>(8, size));
        fs::resize_file(journal, size - cut, ec);
        *trace += "  torn journal tail: -" + std::to_string(cut) + "B\n";
      }
      break;
    }
    case CrashPoint::kMidCheckpointTmp: {
      // A kill mid-checkpoint-write leaves a partial .tmp the loader must
      // never consider.
      std::string tmp = checkpoints + "/ckpt-ffffffffffffffff.ckpt.tmp";
      if (FILE* f = std::fopen(tmp.c_str(), "wb")) {
        Bytes garbage = rng.NextBytes(64 + rng.NextBelow(192));
        std::fwrite(garbage.data(), 1, garbage.size(), f);
        std::fclose(f);
        *trace += "  torn checkpoint .tmp left behind\n";
      }
      break;
    }
    case CrashPoint::kMidCheckpointFinal: {
      // Bit-rot / partial rename on the newest final checkpoint: CRC must
      // catch it, the loader must quarantine and fall back.
      const std::string newest = NewestCheckpoint(checkpoints);
      if (newest.empty()) break;
      const std::string path = checkpoints + "/" + newest;
      auto size = fs::file_size(path, ec);
      if (ec || size == 0) break;
      uint64_t offset = rng.NextBelow(size);
      if (FILE* f = std::fopen(path.c_str(), "r+b")) {
        std::fseek(f, static_cast<long>(offset), SEEK_SET);
        int c = std::fgetc(f);
        std::fseek(f, static_cast<long>(offset), SEEK_SET);
        std::fputc((c ^ 0x5a) & 0xff, f);
        std::fclose(f);
        *trace += "  flipped byte " + std::to_string(offset) +
                  " of newest checkpoint\n";
      }
      break;
    }
  }
}

Bytes MakePayload(uint64_t seed, size_t index) {
  std::string s = "pay-" + std::to_string(seed) + "-" + std::to_string(index);
  return Bytes(s.begin(), s.end());
}

/// Seed-derived kill schedule: non-overlapping crash windows, victims and
/// crash points uniform. `allow_replica0` is false for PBFT (replica 0 is
/// the commit counter the flush loop waits on).
std::vector<CrashEvent> PlanCrashes(uint64_t seed,
                                    const CrashRecoveryOptions& options,
                                    bool allow_replica0) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  size_t n_crashes = 1 + rng.NextBelow(std::max<size_t>(options.max_crashes, 1));
  std::vector<CrashEvent> plan;
  size_t cursor = 2 + rng.NextBelow(4);
  for (size_t c = 0; c < n_crashes && cursor + 2 < options.num_payloads; ++c) {
    CrashEvent ev;
    ev.at = cursor;
    ev.victim = allow_replica0 ? rng.NextBelow(options.num_replicas)
                               : 1 + rng.NextBelow(options.num_replicas - 1);
    ev.point = static_cast<CrashPoint>(rng.NextBelow(4));
    size_t gap = rng.NextBelow(options.max_gap + 1);
    ev.recover_at = std::min(ev.at + gap, options.num_payloads - 1);
    plan.push_back(ev);
    cursor = ev.recover_at + 1 + rng.NextBelow(6);
  }
  return plan;
}

/// Digest-identical common prefix across all replica ledgers.
Status CheckLedgerPrefixes(const core::ReplicatedOrdering& ordering) {
  for (size_t i = 1; i < ordering.num_replicas(); ++i) {
    const ledger::LedgerDb& a = ordering.ReplicaLedger(0);
    const ledger::LedgerDb& b = ordering.ReplicaLedger(i);
    uint64_t common = std::min(a.size(), b.size());
    for (uint64_t s = 0; s < common; ++s) {
      auto ea = a.GetEntry(s);
      auto eb = b.GetEntry(s);
      PREVER_RETURN_IF_ERROR(ea.status());
      PREVER_RETURN_IF_ERROR(eb.status());
      if (ea->payload != eb->payload || ea->timestamp != eb->timestamp) {
        return Status::IntegrityViolation(
            "replica " + std::to_string(i) + " diverges from replica 0 at " +
            std::to_string(s));
      }
    }
  }
  return Status::Ok();
}

/// Exactly-once: replica 0's post-Flush ledger holds every submitted payload
/// exactly once and nothing else.
Status CheckExactlyOnce(const ledger::LedgerDb& ledger,
                        const std::vector<Bytes>& submitted) {
  std::map<Bytes, size_t> counts;
  for (uint64_t s = 0; s < ledger.size(); ++s) {
    auto entry = ledger.GetEntry(s);
    PREVER_RETURN_IF_ERROR(entry.status());
    ++counts[entry->payload];
  }
  if (ledger.size() != submitted.size()) {
    return Status::IntegrityViolation(
        "ledger size " + std::to_string(ledger.size()) + " != submitted " +
        std::to_string(submitted.size()));
  }
  for (const Bytes& payload : submitted) {
    auto it = counts.find(payload);
    if (it == counts.end()) {
      return Status::IntegrityViolation("payload missing from ledger");
    }
    if (it->second != 1) {
      return Status::IntegrityViolation(
          "payload committed " + std::to_string(it->second) + " times");
    }
  }
  return Status::Ok();
}

/// The durable record reproduces the live ledger: replica 0, crashed and
/// restarted with no network step in between, holds its ledger as before.
/// Loading re-checks every checkpoint's manifest root against the Merkle
/// root recomputed from its entries.
Status CheckRestartFromDisk(core::ReplicatedOrdering& ordering) {
  const ledger::LedgerDigest live = ordering.ReplicaLedger(0).Digest();
  PREVER_RETURN_IF_ERROR(ordering.CrashReplica(0));
  PREVER_RETURN_IF_ERROR(ordering.RestartReplica(0));
  if (!(ordering.ReplicaLedger(0).Digest() == live)) {
    return Status::IntegrityViolation(
        "replica 0 restarted from disk != its live ledger");
  }
  return Status::Ok();
}

uint64_t CounterValue(const char* name) {
  return obs::Registry::Default().GetCounter(name)->value();
}

/// Fills in a default data directory and removes what an earlier run left.
CrashRecoveryOptions Prepare(const CrashRecoveryOptions& options,
                             const char* proto, uint64_t seed) {
  CrashRecoveryOptions opts = options;
  if (opts.data_dir.empty()) {
    std::error_code ec;
    fs::path base = fs::temp_directory_path(ec);
    if (ec) base = ".";
    opts.data_dir = (base / ("prever_crashrec_" + std::string(proto) + "_" +
                             std::to_string(seed)))
                        .string();
  }
  std::error_code ec;
  fs::remove_all(opts.data_dir, ec);
  return opts;
}

net::SimNetConfig ScenarioNet(uint64_t seed) {
  net::SimNetConfig config;
  config.seed = seed;
  return config;
}

core::OrderingPipelineConfig ScenarioPipeline() {
  core::OrderingPipelineConfig pipeline;
  pipeline.max_batch = 4;
  pipeline.max_inflight = 2;
  return pipeline;
}

/// The one scenario loop. Only the victim choice (`crash_replica0`), the
/// crash budget (`max_down` replicas at once) and `final_check` differ
/// between protocols.
CrashRecoveryReport RunScenario(
    core::ReplicatedOrdering& ordering, uint64_t seed,
    const CrashRecoveryOptions& opts, bool crash_replica0, size_t max_down,
    const std::function<Status()>& final_check) {
  CrashRecoveryReport report;
  report.seed = seed;
  const uint64_t saves0 = CounterValue("prever_recovery_checkpoint_saves");
  const uint64_t quarantined0 =
      CounterValue("prever_recovery_checkpoints_quarantined");
  const uint64_t replayed0 = CounterValue("prever_recovery_replayed_entries");
  auto finish = [&](const Status& status) {
    if (!status.ok()) {
      report.ok = false;
      report.violation = status.message().empty()
                             ? std::string(StatusCodeName(status.code()))
                             : status.message();
    }
    std::error_code ec;
    fs::remove_all(opts.data_dir, ec);
    return report;
  };

  Rng rng(seed);
  std::vector<CrashEvent> plan = PlanCrashes(seed, opts, crash_replica0);
  std::vector<Bytes> submitted;
  size_t next_crash = 0;
  std::set<size_t> down;
  auto restart = [&](size_t victim) -> Status {
    down.erase(victim);
    report.trace += "recover r" + std::to_string(victim) + "\n";
    PREVER_RETURN_IF_ERROR(ordering.RestartReplica(victim));
    ++report.recoveries;
    return Status::Ok();
  };

  for (size_t k = 0; k < opts.num_payloads; ++k) {
    // Restart any victim whose outage window ended.
    for (const CrashEvent& ev : plan) {
      if (ev.recover_at == k && down.count(ev.victim)) {
        if (Status s = restart(ev.victim); !s.ok()) return finish(s);
      }
    }
    Bytes payload = MakePayload(seed, k);
    submitted.push_back(payload);
    // While replica 0 (the commit counter) is down, enqueue without waiting:
    // commitment is driven after its restart.
    Status s = down.count(0) ? ordering.SubmitAsync(payload, 0).status()
                             : ordering.Append(payload, 0);
    if (!s.ok()) return finish(s);
    if (next_crash < plan.size() && plan[next_crash].at == k) {
      const CrashEvent& ev = plan[next_crash++];
      if (!down.count(ev.victim) && down.size() < max_down) {
        down.insert(ev.victim);
        ++report.crashes;
        report.trace += "crash r" + std::to_string(ev.victim) + " @" +
                        std::to_string(k) + " " + CrashPointName(ev.point) +
                        "\n";
        if (Status c = ordering.CrashReplica(ev.victim); !c.ok()) {
          return finish(c);
        }
        ApplyCrashDamage(opts.data_dir + "/r" + std::to_string(ev.victim),
                         ev.point, rng, &report.trace);
      }
    }
  }
  for (size_t victim : std::set<size_t>(down)) {
    if (Status s = restart(victim); !s.ok()) return finish(s);
  }
  if (Status s = ordering.Flush(); !s.ok()) return finish(s);
  // Quiet tail: followers drain replication traffic, and PBFT state
  // transfer rounds (fetch -> responses -> certified suffix execution) need
  // network time past the last flush.
  ordering.network().RunUntil(ordering.network().Now() + 10 * kSecond);

  report.committed = ordering.ReplicaLedger(0).size();
  report.checkpoints_saved =
      CounterValue("prever_recovery_checkpoint_saves") - saves0;
  report.checkpoints_quarantined =
      CounterValue("prever_recovery_checkpoints_quarantined") - quarantined0;
  report.journal_entries_replayed =
      CounterValue("prever_recovery_replayed_entries") - replayed0;
  Status s = CheckExactlyOnce(ordering.ReplicaLedger(0), submitted);
  if (s.ok()) s = CheckLedgerPrefixes(ordering);
  if (s.ok() && final_check) s = final_check();
  if (s.ok()) s = CheckRestartFromDisk(ordering);
  return finish(s);
}

}  // namespace

const char* CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kClean: return "clean";
    case CrashPoint::kMidWalAppend: return "mid-wal-append";
    case CrashPoint::kMidCheckpointTmp: return "mid-checkpoint-tmp";
    case CrashPoint::kMidCheckpointFinal: return "mid-checkpoint-final";
  }
  return "?";
}

std::string CrashRecoveryReport::Summary(const char* protocol) const {
  std::string s = std::string(protocol) + " crash-recovery seed=" +
                  std::to_string(seed) + (ok ? " OK" : " FAILED");
  if (!ok) s += "\nviolation: " + violation;
  s += "\ncrashes=" + std::to_string(crashes) +
       " recoveries=" + std::to_string(recoveries) +
       " checkpoints=" + std::to_string(checkpoints_saved) +
       " quarantined=" + std::to_string(checkpoints_quarantined) +
       " replayed=" + std::to_string(journal_entries_replayed) +
       " committed=" + std::to_string(committed);
  if (!ok && !trace.empty()) s += "\ntrace:\n" + trace;
  return s;
}

CrashRecoveryReport RunRaftCrashRecoveryScenario(
    uint64_t seed, const CrashRecoveryOptions& options) {
  const CrashRecoveryOptions opts = Prepare(options, "raft", seed);
  core::RaftOrdering ordering(opts.num_replicas, ScenarioNet(seed),
                              ScenarioPipeline(), opts.checkpoint_interval,
                              opts.data_dir);
  return RunScenario(ordering, seed, opts, /*crash_replica0=*/true,
                     (opts.num_replicas - 1) / 2, nullptr);
}

CrashRecoveryReport RunPbftCrashRecoveryScenario(
    uint64_t seed, const CrashRecoveryOptions& options) {
  const CrashRecoveryOptions opts = Prepare(options, "pbft", seed);
  const core::OrderingPipelineConfig pipeline = ScenarioPipeline();
  core::PbftOrdering ordering(opts.num_replicas, ScenarioNet(seed),
                              "pbft-crashrec", pipeline,
                              opts.checkpoint_interval, opts.data_dir);
  // Message-log GC: every replica's log must be bounded by the checkpoint
  // interval plus the watermark window.
  auto log_bound = [&]() -> Status {
    const size_t bound = opts.checkpoint_interval +
                         2 * pipeline.max_inflight * pipeline.max_batch + 64;
    for (size_t i = 0; i < opts.num_replicas; ++i) {
      const size_t slots = ordering.cluster().replica(i).log_slots();
      if (slots > bound * 4) {
        return Status::IntegrityViolation(
            "replica " + std::to_string(i) + " message log unbounded: " +
            std::to_string(slots) + " slots");
      }
    }
    return Status::Ok();
  };
  const size_t f = (opts.num_replicas - 1) / 3;
  return RunScenario(ordering, seed, opts, /*crash_replica0=*/false,
                     std::max<size_t>(f, 1), log_bound);
}

}  // namespace prever::simtest
