#include "testing/crash_recovery.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include "common/rng.h"
#include "core/ordering.h"
#include "obs/registry.h"
#include "recovery/checkpoint.h"
#include "recovery/journal.h"

namespace prever::simtest {

namespace {

namespace fs = std::filesystem;

obs::Histogram& RecoveryTimeHistogram() {
  static obs::Histogram* h =
      obs::Registry::Default().GetHistogram("prever_recovery_time_us");
  return *h;
}

/// Per-replica durable state: a checkpoint store and a commit journal, both
/// living under the scenario's work directory. This is the state a real
/// deployment would have on disk when the process is killed.
struct DurableReplica {
  std::unique_ptr<recovery::CheckpointStore> store;
  std::unique_ptr<recovery::CommitJournal> journal;
  std::string journal_path;
  uint64_t events_since_ckpt = 0;
  /// consensus_seq of the newest and second-newest durable checkpoints. The
  /// journal is only truncated below the *previous* checkpoint, so a corrupt
  /// newest checkpoint still recovers from the previous one plus a longer
  /// replay.
  uint64_t last_ckpt_seq = 0;
  uint64_t prev_ckpt_seq = 0;
  bool crashed = false;
};

/// One scheduled kill: after committing payload `at`, replica `victim` dies
/// at `point`; it restarts once `recover_at` payloads have been submitted.
struct CrashEvent {
  size_t at = 0;
  size_t recover_at = 0;
  size_t victim = 0;
  CrashPoint point = CrashPoint::kClean;
};

Status InitDurable(const CrashRecoveryOptions& options,
                   std::vector<DurableReplica>* durable) {
  durable->resize(options.num_replicas);
  for (size_t i = 0; i < options.num_replicas; ++i) {
    std::string dir = options.work_dir + "/r" + std::to_string(i);
    DurableReplica& d = (*durable)[i];
    d.store = std::make_unique<recovery::CheckpointStore>(dir + "/ckpt");
    PREVER_RETURN_IF_ERROR(d.store->Init());
    d.journal_path = dir + "/journal.wal";
    d.journal = std::make_unique<recovery::CommitJournal>();
    PREVER_RETURN_IF_ERROR(d.journal->Open(d.journal_path));
  }
  return Status::Ok();
}

/// Mutilates the victim's durable files exactly as a kill at `point` would.
void ApplyCrashDamage(DurableReplica& d, CrashPoint point, Rng& rng,
                      std::string* trace) {
  std::error_code ec;
  switch (point) {
    case CrashPoint::kClean:
      break;
    case CrashPoint::kMidWalAppend: {
      // A torn final journal record: the kill landed mid-fwrite. Recovery
      // must keep the clean prefix and the consensus layer re-delivers the
      // lost tail.
      auto size = fs::file_size(d.journal_path, ec);
      if (!ec && size > 0) {
        uint64_t cut = 1 + rng.NextBelow(std::min<uint64_t>(8, size));
        fs::resize_file(d.journal_path, size - cut, ec);
        if (trace) {
          *trace += "  torn journal tail: -" + std::to_string(cut) + "B\n";
        }
      }
      break;
    }
    case CrashPoint::kMidCheckpointTmp: {
      // A kill mid-checkpoint-write leaves a partial .tmp the loader must
      // never consider.
      std::string tmp = d.store->dir() + "/ckpt-ffffffffffffffff.ckpt.tmp";
      if (FILE* f = std::fopen(tmp.c_str(), "wb")) {
        Bytes garbage = rng.NextBytes(64 + rng.NextBelow(192));
        std::fwrite(garbage.data(), 1, garbage.size(), f);
        std::fclose(f);
        if (trace) *trace += "  torn checkpoint .tmp left behind\n";
      }
      break;
    }
    case CrashPoint::kMidCheckpointFinal: {
      // Bit-rot / partial rename on the newest final checkpoint: CRC must
      // catch it, the loader must quarantine and fall back.
      std::vector<std::string> files = d.store->ListFiles();
      if (!files.empty()) {
        std::string path = d.store->dir() + "/" + files.back();
        auto size = fs::file_size(path, ec);
        if (!ec && size > 0) {
          uint64_t offset = rng.NextBelow(size);
          if (FILE* f = std::fopen(path.c_str(), "r+b")) {
            std::fseek(f, static_cast<long>(offset), SEEK_SET);
            int c = std::fgetc(f);
            std::fseek(f, static_cast<long>(offset), SEEK_SET);
            std::fputc((c ^ 0x5a) & 0xff, f);
            std::fclose(f);
            if (trace) {
              *trace += "  flipped byte " + std::to_string(offset) +
                        " of newest checkpoint\n";
            }
          }
        }
      }
      break;
    }
  }
}

/// Durable state rebuilt at restart, before the consensus layer is involved.
struct RebuiltState {
  ledger::LedgerDb ledger;
  uint64_t floor = 0;  ///< Highest consensus position the ledger covers.
  uint64_t checkpoint_seq = 0;  ///< Floor covered by the checkpoint alone.
  uint64_t replayed = 0;        ///< Journal entries appended past it.
  Bytes app_state;              ///< Checkpoint's opaque consensus blob.
  std::vector<uint64_t> batch_ids;  ///< Batches the replayed journal carried.
  /// Journal events actually replayed; the journal is rewritten to exactly
  /// these at restart (dropping torn tails, pre-checkpoint events, and any
  /// post-gap events consensus will re-deliver anyway).
  std::vector<recovery::JournalEvent> kept;
};

/// The real recovery read path: newest intact checkpoint (corrupt ones
/// quarantined inside LoadLatest) + commit-journal suffix replay. Records
/// wall-clock recovery time into prever_recovery_time_us.
Result<RebuiltState> RebuildFromDurable(DurableReplica& d) {
  auto t0 = std::chrono::steady_clock::now();
  RebuiltState out;
  auto ckpt = d.store->LoadLatest();
  if (ckpt.ok()) {
    out.ledger = std::move(ckpt->ledger);
    out.floor = ckpt->manifest.consensus_seq;
    out.checkpoint_seq = ckpt->manifest.consensus_seq;
    out.app_state = std::move(ckpt->app_state);
  } else if (ckpt.status().code() != StatusCode::kNotFound) {
    return ckpt.status();
  }
  bool torn = false;
  PREVER_ASSIGN_OR_RETURN(std::vector<recovery::JournalEvent> events,
                          recovery::CommitJournal::Recover(d.journal_path,
                                                           &torn));
  for (const recovery::JournalEvent& event : events) {
    if (event.position <= out.checkpoint_seq) continue;
    auto appended = recovery::ReplayLedgerSuffix(event.entries, &out.ledger);
    if (!appended.ok()) {
      // A replay gap here means the bridge between journal epochs — a
      // checkpoint persisted when consensus-level state transfer replaced
      // the ledger wholesale — was itself lost to corruption. The journal
      // cannot cover entries this replica never committed locally; recover
      // from the longest contiguous durable prefix and let consensus
      // (snapshot install / state transfer) re-deliver the rest.
      break;
    }
    out.replayed += *appended;
    out.batch_ids.push_back(event.batch_id);
    out.floor = std::max(out.floor, event.position);
    out.kept.push_back(event);
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - t0);
  RecoveryTimeHistogram().Record(static_cast<uint64_t>(elapsed.count()));
  return out;
}

/// Rewrites the journal at restart to exactly the events recovery consumed:
/// torn tails, events below the surviving checkpoint, and events past a
/// replay gap (which consensus re-delivers) are all dropped.
Status ResetJournal(DurableReplica& d,
                    const std::vector<recovery::JournalEvent>& kept) {
  d.journal->Close();
  std::remove(d.journal_path.c_str());
  PREVER_RETURN_IF_ERROR(d.journal->Open(d.journal_path));
  for (const recovery::JournalEvent& event : kept) {
    PREVER_RETURN_IF_ERROR(d.journal->Append(event));
  }
  return Status::Ok();
}

/// A consensus-level state install (Raft InstallSnapshot, PBFT checkpoint
/// install) replaces the replica's ledger wholesale, bypassing the commit
/// journal — the journal would have a hole between its last event and the
/// installed state. Persist the installed state as a durable checkpoint so
/// the on-disk chain stays contiguous; the journal keeps only what the new
/// checkpoint does not cover.
void PersistInstalledState(const core::ReplicatedOrdering& ordering,
                           size_t replica, uint64_t floor, Bytes app_state,
                           DurableReplica& d, CrashRecoveryReport* report) {
  if (d.crashed || !d.journal->is_open()) return;
  if (floor <= d.last_ckpt_seq) return;  // Existing chain already covers.
  recovery::CheckpointContents contents;
  contents.ledger = &ordering.ReplicaLedger(replica);
  contents.consensus_seq = floor;
  contents.app_state = std::move(app_state);
  if (d.store->Save(contents).ok()) {
    ++report->checkpoints_saved;
    d.prev_ckpt_seq = d.last_ckpt_seq;
    d.last_ckpt_seq = floor;
    d.events_since_ckpt = 0;
    d.store->GarbageCollect(2);
    (void)d.journal->TruncateBelow(d.prev_ckpt_seq);
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
Status CheckLedgerPrefixes(const core::ReplicatedOrdering& ordering,
                           size_t num_replicas) {
  for (size_t i = 1; i < num_replicas; ++i) {
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

/// Save-then-reload: a final checkpoint must survive its own validation and
/// carry the recomputed Merkle root of the live ledger.
Status CheckCheckpointRoot(const core::ReplicatedOrdering& ordering,
                           DurableReplica& d) {
  recovery::CheckpointContents contents;
  contents.ledger = &ordering.ReplicaLedger(0);
  contents.consensus_seq = ~uint64_t{0};  // Sentinel: newest by id anyway.
  PREVER_RETURN_IF_ERROR(d.store->Save(contents).status());
  PREVER_ASSIGN_OR_RETURN(recovery::Checkpoint reloaded, d.store->LoadLatest());
  auto live = ordering.ReplicaLedger(0).Digest();
  if (reloaded.manifest.ledger_root != live.root ||
      reloaded.ledger.Digest().root != live.root) {
    return Status::IntegrityViolation(
        "final checkpoint root != recomputed ledger Merkle root");
  }
  return Status::Ok();
}

void CleanupWorkDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
}

std::string DefaultWorkDir(const char* proto, uint64_t seed) {
  std::error_code ec;
  fs::path base = fs::temp_directory_path(ec);
  if (ec) base = ".";
  return (base / ("prever_crashrec_" + std::string(proto) + "_" +
                  std::to_string(seed)))
      .string();
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

// --------------------------------------------------------------------- Raft

CrashRecoveryReport RunRaftCrashRecoveryScenario(
    uint64_t seed, const CrashRecoveryOptions& options) {
  CrashRecoveryReport report;
  report.seed = seed;
  CrashRecoveryOptions opts = options;
  if (opts.work_dir.empty()) opts.work_dir = DefaultWorkDir("raft", seed);
  CleanupWorkDir(opts.work_dir);

  auto fail = [&](const Status& status) {
    report.ok = false;
    report.violation = status.message().empty()
                           ? std::string(StatusCodeName(status.code()))
                           : status.message();
    CleanupWorkDir(opts.work_dir);
    return report;
  };

  std::vector<DurableReplica> durable;
  if (Status s = InitDurable(opts, &durable); !s.ok()) return fail(s);

  net::SimNetConfig net_config;
  net_config.seed = seed;
  core::OrderingPipelineConfig pipeline;
  pipeline.max_batch = 4;
  pipeline.max_inflight = 2;
  core::RaftOrdering ordering(opts.num_replicas, net_config, pipeline);

  Rng rng(seed);
  // Journal every commit; every checkpoint_every events, checkpoint + compact
  // the Raft log below the applied floor + truncate the journal below the
  // previous checkpoint.
  ordering.SetReplicaCommitObserver([&](size_t replica, uint64_t position,
                                        uint64_t batch_id,
                                        const std::vector<Bytes>& entries) {
    DurableReplica& d = durable[replica];
    if (d.crashed || !d.journal->is_open()) return;
    (void)d.journal->Append({position, batch_id, entries});
    if (++d.events_since_ckpt < opts.checkpoint_every) return;
    d.events_since_ckpt = 0;
    recovery::CheckpointContents contents;
    contents.ledger = &ordering.ReplicaLedger(replica);
    contents.consensus_seq = position;
    contents.app_state = ordering.EncodeReplicaState(replica);
    if (d.store->Save(contents).ok()) {
      ++report.checkpoints_saved;
      d.prev_ckpt_seq = d.last_ckpt_seq;
      d.last_ckpt_seq = position;
      d.store->GarbageCollect(2);
      (void)ordering.cluster().replica(replica).CompactTo(
          ordering.replica_applied_floor(replica), contents.app_state);
      (void)d.journal->TruncateBelow(d.prev_ckpt_seq);
    }
  });

  // Override the ordering's stock snapshot installer so installed state is
  // also made durable (see PersistInstalledState).
  for (size_t i = 0; i < opts.num_replicas; ++i) {
    ordering.cluster().replica(i).SetSnapshotInstaller(
        [&, i](uint64_t /*snap_index*/, const Bytes& blob) {
          if (blob.empty()) return;
          if (!ordering.RestoreReplicaState(i, blob).ok()) return;
          PersistInstalledState(ordering, i,
                                ordering.replica_applied_floor(i),
                                ordering.EncodeReplicaState(i), durable[i],
                                &report);
        });
  }

  std::vector<CrashEvent> plan = PlanCrashes(seed, opts, /*allow_replica0=*/true);
  std::vector<Bytes> submitted;
  size_t next_crash = 0;
  std::set<size_t> down;

  auto recover_replica = [&](size_t victim) -> Status {
    DurableReplica& d = durable[victim];
    report.trace += "recover r" + std::to_string(victim) + "\n";
    auto rebuilt = RebuildFromDurable(d);
    PREVER_RETURN_IF_ERROR(rebuilt.status());
    report.journal_entries_replayed += rebuilt->replayed;
    // Re-anchor the checkpoint chain on what actually survived (the newest
    // file may have been quarantined); prev = 0 keeps the journal
    // conservatively long until the next save re-establishes a chain.
    d.last_ckpt_seq = rebuilt->checkpoint_seq;
    d.prev_ckpt_seq = 0;
    PREVER_RETURN_IF_ERROR(ResetJournal(d, rebuilt->kept));
    d.crashed = false;
    d.events_since_ckpt = 0;
    ordering.network().RestartNode(static_cast<net::NodeId>(victim));
    auto& rep = ordering.cluster().replica(victim);
    if (rep.snapshot_index() > rebuilt->floor && !rep.snapshot_blob().empty()) {
      // The (durable) Raft log was compacted past the journal coverage —
      // entries below the snapshot are gone from the log, so a rewind to
      // the durable floor could never re-deliver them. The snapshot blob
      // embedded in the log carries the app state; install it, then persist
      // so the on-disk chain is anchored again.
      PREVER_RETURN_IF_ERROR(
          ordering.RestoreReplicaState(victim, rep.snapshot_blob()));
      rep.Recover(ordering.replica_applied_floor(victim));
      PersistInstalledState(ordering, victim,
                            ordering.replica_applied_floor(victim),
                            ordering.EncodeReplicaState(victim), d, &report);
    } else {
      // Restore the checkpoint's replica state (its batch-id dedup set
      // included; no checkpoint restores the empty state), then overlay the
      // journal-extended ledger and the journal's batch ids. RestoreReplica
      // re-enters RaftReplica::Recover: rewind to the durable floor and
      // re-deliver the committed suffix through the apply callback (batch-id
      // dedup absorbs anything the ledger already holds).
      PREVER_RETURN_IF_ERROR(
          ordering.RestoreReplicaState(victim, rebuilt->app_state));
      PREVER_RETURN_IF_ERROR(ordering.RestoreReplica(
          victim, std::move(rebuilt->ledger), rebuilt->floor,
          rebuilt->batch_ids));
    }
    ++report.recoveries;
    return Status::Ok();
  };

  for (size_t k = 0; k < opts.num_payloads; ++k) {
    // Restart any victim whose outage window ended.
    for (size_t c = 0; c < plan.size(); ++c) {
      if (plan[c].recover_at == k && down.count(plan[c].victim)) {
        down.erase(plan[c].victim);
        if (Status s = recover_replica(plan[c].victim); !s.ok()) {
          return fail(s);
        }
      }
    }
    Bytes payload = MakePayload(seed, k);
    submitted.push_back(payload);
    // While replica 0 (the commit counter) is down, enqueue without waiting:
    // commitment is driven after its recovery.
    if (down.count(0)) {
      if (auto t = ordering.SubmitAsync(payload, 0); !t.ok()) {
        return fail(t.status());
      }
    } else {
      if (Status s = ordering.Append(payload, 0); !s.ok()) return fail(s);
    }
    if (next_crash < plan.size() && plan[next_crash].at == k) {
      const CrashEvent& ev = plan[next_crash++];
      if (!down.count(ev.victim) && down.size() < (opts.num_replicas - 1) / 2) {
        down.insert(ev.victim);
        ++report.crashes;
        report.trace += "crash r" + std::to_string(ev.victim) + " @" +
                        std::to_string(k) + " " + CrashPointName(ev.point) +
                        "\n";
        ordering.network().CrashNode(static_cast<net::NodeId>(ev.victim));
        ordering.cluster().replica(ev.victim).Crash();
        durable[ev.victim].crashed = true;
        durable[ev.victim].journal->Close();
        ApplyCrashDamage(durable[ev.victim], ev.point, rng, &report.trace);
      }
    }
  }
  for (size_t victim : std::set<size_t>(down)) {
    down.erase(victim);
    if (Status s = recover_replica(victim); !s.ok()) return fail(s);
  }
  if (Status s = ordering.Flush(); !s.ok()) return fail(s);
  // Quiet tail: let followers drain replication traffic.
  ordering.network().RunUntil(ordering.network().Now() + 5 * kSecond);

  report.committed = ordering.ReplicaLedger(0).size();
  for (const DurableReplica& d : durable) {
    report.checkpoints_quarantined += d.store->quarantined();
  }
  if (Status s = CheckExactlyOnce(ordering.ReplicaLedger(0), submitted);
      !s.ok()) {
    return fail(s);
  }
  if (Status s = CheckLedgerPrefixes(ordering, opts.num_replicas); !s.ok()) {
    return fail(s);
  }
  if (Status s = CheckCheckpointRoot(ordering, durable[0]); !s.ok()) {
    return fail(s);
  }
  CleanupWorkDir(opts.work_dir);
  return report;
}

// --------------------------------------------------------------------- PBFT

CrashRecoveryReport RunPbftCrashRecoveryScenario(
    uint64_t seed, const CrashRecoveryOptions& options) {
  CrashRecoveryReport report;
  report.seed = seed;
  CrashRecoveryOptions opts = options;
  if (opts.work_dir.empty()) opts.work_dir = DefaultWorkDir("pbft", seed);
  CleanupWorkDir(opts.work_dir);

  auto fail = [&](const Status& status) {
    report.ok = false;
    report.violation = status.message().empty()
                           ? std::string(StatusCodeName(status.code()))
                           : status.message();
    CleanupWorkDir(opts.work_dir);
    return report;
  };

  std::vector<DurableReplica> durable;
  if (Status s = InitDurable(opts, &durable); !s.ok()) return fail(s);

  net::SimNetConfig net_config;
  net_config.seed = seed;
  core::OrderingPipelineConfig pipeline;
  pipeline.max_batch = 4;
  pipeline.max_inflight = 2;
  core::PbftOrdering ordering(opts.num_replicas, net_config, "pbft-crashrec",
                              pipeline, opts.pbft_checkpoint_interval);

  Rng rng(seed);
  ordering.SetReplicaCommitObserver([&](size_t replica, uint64_t position,
                                        uint64_t batch_id,
                                        const std::vector<Bytes>& entries) {
    DurableReplica& d = durable[replica];
    if (d.crashed || !d.journal->is_open()) return;
    (void)d.journal->Append({position, batch_id, entries});
    if (++d.events_since_ckpt < opts.checkpoint_every) return;
    d.events_since_ckpt = 0;
    recovery::CheckpointContents contents;
    contents.ledger = &ordering.ReplicaLedger(replica);
    contents.consensus_seq = position;
    // The durable app blob is the full state behind the replica's stable
    // checkpoint: on restart it re-anchors the replica's low watermark;
    // state transfer covers executions past it.
    contents.app_state =
        ordering.cluster().replica(replica).EncodeStableState();
    if (d.store->Save(contents).ok()) {
      ++report.checkpoints_saved;
      d.prev_ckpt_seq = d.last_ckpt_seq;
      d.last_ckpt_seq = position;
      d.store->GarbageCollect(2);
      (void)d.journal->TruncateBelow(d.prev_ckpt_seq);
    }
  });

  // Override the ordering's stock install callback so transferred state is
  // also made durable (see PersistInstalledState). The replica adopts the
  // installed stable state only once the callback returns, so the save runs
  // as the next simulated event. The summary and encode sides stay the
  // ordering's own.
  for (size_t i = 0; i < opts.num_replicas; ++i) {
    ordering.cluster().replica(i).SetStateCallbacks(
        [&, i] { return ordering.StateSummary(i); },
        [&, i](const Bytes& summary) {
          return ordering.EncodeStateAt(i, summary);
        },
        [&, i](uint64_t, const Bytes& summary, const Bytes& state) {
          if (!ordering.InstallState(i, summary, state)) return false;
          ordering.network().ScheduleAfter(0, [&, i] {
            PersistInstalledState(
                ordering, i, ordering.replica_applied_seq(i),
                ordering.cluster().replica(i).EncodeStableState(), durable[i],
                &report);
          });
          return true;
        });
  }

  std::vector<CrashEvent> plan =
      PlanCrashes(seed, opts, /*allow_replica0=*/false);
  std::vector<Bytes> submitted;
  size_t next_crash = 0;
  std::set<size_t> down;

  auto recover_replica = [&](size_t victim) -> Status {
    DurableReplica& d = durable[victim];
    report.trace += "recover r" + std::to_string(victim) + "\n";
    auto rebuilt = RebuildFromDurable(d);
    PREVER_RETURN_IF_ERROR(rebuilt.status());
    report.journal_entries_replayed += rebuilt->replayed;
    d.last_ckpt_seq = rebuilt->checkpoint_seq;
    d.prev_ckpt_seq = 0;
    PREVER_RETURN_IF_ERROR(ResetJournal(d, rebuilt->kept));
    d.crashed = false;
    d.events_since_ckpt = 0;
    ordering.network().RestartNode(static_cast<net::NodeId>(victim));
    // Protocol restart first (installs the saved stable state, broadcasts a
    // fetch-state request), then overlay the fuller journal-replayed ledger
    // so commits at or below the durable floor are not re-appended.
    ordering.cluster().replica(victim).Restart(rebuilt->app_state);
    PREVER_RETURN_IF_ERROR(ordering.RestoreReplica(
        victim, std::move(rebuilt->ledger), rebuilt->floor));
    ++report.recoveries;
    return Status::Ok();
  };

  for (size_t k = 0; k < opts.num_payloads; ++k) {
    for (size_t c = 0; c < plan.size(); ++c) {
      if (plan[c].recover_at == k && down.count(plan[c].victim)) {
        down.erase(plan[c].victim);
        if (Status s = recover_replica(plan[c].victim); !s.ok()) {
          return fail(s);
        }
      }
    }
    Bytes payload = MakePayload(seed, k);
    submitted.push_back(payload);
    if (Status s = ordering.Append(payload, 0); !s.ok()) return fail(s);
    if (next_crash < plan.size() && plan[next_crash].at == k) {
      const CrashEvent& ev = plan[next_crash++];
      size_t f = (opts.num_replicas - 1) / 3;
      if (!down.count(ev.victim) && down.size() < std::max<size_t>(f, 1)) {
        down.insert(ev.victim);
        ++report.crashes;
        report.trace += "crash r" + std::to_string(ev.victim) + " @" +
                        std::to_string(k) + " " + CrashPointName(ev.point) +
                        "\n";
        ordering.network().CrashNode(static_cast<net::NodeId>(ev.victim));
        ordering.cluster().replica(ev.victim).Crash();
        durable[ev.victim].crashed = true;
        durable[ev.victim].journal->Close();
        ApplyCrashDamage(durable[ev.victim], ev.point, rng, &report.trace);
      }
    }
  }
  for (size_t victim : std::set<size_t>(down)) {
    down.erase(victim);
    if (Status s = recover_replica(victim); !s.ok()) return fail(s);
  }
  if (Status s = ordering.Flush(); !s.ok()) return fail(s);
  // Quiet tail: state transfer rounds (fetch -> responses -> certified
  // suffix execution) need network time past the last flush.
  ordering.network().RunUntil(ordering.network().Now() + 10 * kSecond);

  report.committed = ordering.ReplicaLedger(0).size();
  for (const DurableReplica& d : durable) {
    report.checkpoints_quarantined += d.store->quarantined();
  }
  if (Status s = CheckExactlyOnce(ordering.ReplicaLedger(0), submitted);
      !s.ok()) {
    return fail(s);
  }
  if (Status s = CheckLedgerPrefixes(ordering, opts.num_replicas); !s.ok()) {
    return fail(s);
  }
  if (Status s = CheckCheckpointRoot(ordering, durable[0]); !s.ok()) {
    return fail(s);
  }
  // Message-log GC: every live replica's log must be bounded by the
  // protocol checkpoint interval plus the watermark window.
  for (size_t i = 0; i < opts.num_replicas; ++i) {
    size_t bound = opts.pbft_checkpoint_interval +
                   2 * pipeline.max_inflight * pipeline.max_batch + 64;
    size_t slots = ordering.cluster().replica(i).log_slots();
    if (slots > bound * 4) {
      return fail(Status::IntegrityViolation(
          "replica " + std::to_string(i) + " message log unbounded: " +
          std::to_string(slots) + " slots"));
    }
  }
  CleanupWorkDir(opts.work_dir);
  return report;
}

}  // namespace prever::simtest
