#ifndef PREVER_TESTING_CRASH_RECOVERY_H_
#define PREVER_TESTING_CRASH_RECOVERY_H_

#include <string>

#include "common/sim_clock.h"

namespace prever::simtest {

/// Where in the durability pipeline a seed-chosen crash lands. Beyond the
/// clean crash-stop, the damaging kinds model a kill in the middle of a
/// durable write: the harness mutilates the on-disk state exactly as an
/// interrupted write would, then restarts through the real recovery path.
enum class CrashPoint : uint8_t {
  kClean = 0,           ///< Crash between durable operations; files intact.
  kMidWalAppend,        ///< Torn commit-journal tail (partial last record).
  kMidCheckpointTmp,    ///< Torn checkpoint .tmp left in the store directory.
  kMidCheckpointFinal,  ///< Newest final checkpoint corrupted (flipped byte):
                        ///< must be quarantined, previous checkpoint + longer
                        ///< journal replay must cover.
};

const char* CrashPointName(CrashPoint point);

/// Configuration for one randomized end-to-end crash/recovery scenario: an
/// ordering service commits payloads while seed-chosen replicas are killed
/// at seed-chosen crash points, durably checkpointed state is damaged per
/// the crash point, and every victim restarts through checkpoint load +
/// journal replay + consensus-level recovery (Raft snapshot/log replay,
/// PBFT checkpoint install + state transfer).
struct CrashRecoveryOptions {
  size_t num_replicas = 4;
  size_t num_payloads = 48;
  /// Commit events per replica between durable checkpoints (also drives
  /// Raft log compaction and journal truncation).
  uint64_t checkpoint_every = 6;
  size_t max_crashes = 3;
  /// Max payloads committed by the survivors while a victim is down — forces
  /// the restarted replica to catch up past its own durable state.
  size_t max_gap = 4;
  /// PBFT stable-checkpoint interval (protocol-level; paces message-log GC
  /// and the state a restarted replica fetches). Ignored by the Raft
  /// scenario.
  uint64_t pbft_checkpoint_interval = 4;
  /// Root directory for per-replica durable state (checkpoints + journal);
  /// the harness creates `<work_dir>/r<i>/` under it and removes the tree at
  /// scenario end. Must be writable and unique per concurrent scenario.
  std::string work_dir;
};

struct CrashRecoveryReport {
  bool ok = true;
  uint64_t seed = 0;
  std::string violation;  ///< First failed check; empty when ok.
  std::string trace;      ///< Deterministic event trace (crashes, recoveries).
  size_t crashes = 0;
  size_t recoveries = 0;
  uint64_t checkpoints_saved = 0;
  uint64_t checkpoints_quarantined = 0;
  uint64_t journal_entries_replayed = 0;
  uint64_t committed = 0;  ///< Replica-0 ledger size at scenario end.

  /// Human-readable failure report with the seed for replay.
  std::string Summary(const char* protocol) const;
};

/// Raft: crashes (including replica 0 and mid-checkpoint / mid-WAL-append
/// points), restarts through CheckpointStore::LoadLatest + commit-journal
/// replay + RaftReplica::Recover; periodic checkpoints drive CompactTo (log
/// truncation below the snapshot) and journal truncation. Final checks:
/// every payload committed exactly once on replica 0, all replica ledgers
/// digest-identical on their common prefix, checkpoint manifests match the
/// recomputed Merkle root, and the physical Raft log stays bounded.
CrashRecoveryReport RunRaftCrashRecoveryScenario(
    uint64_t seed, const CrashRecoveryOptions& options);

/// PBFT: same shape; victims are backups (replica 0 is the commit counter
/// the pipeline waits on). Restart installs the durably saved stable state
/// (PbftReplica::EncodeStableState), then fetches peer state (the full
/// state behind an f+1-vouched stable certificate + f+1-certified suffix)
/// to cover the gap. Also checks the message log is garbage-collected below
/// the stable checkpoint.
CrashRecoveryReport RunPbftCrashRecoveryScenario(
    uint64_t seed, const CrashRecoveryOptions& options);

}  // namespace prever::simtest

#endif  // PREVER_TESTING_CRASH_RECOVERY_H_
