#ifndef PREVER_TESTING_CRASH_RECOVERY_H_
#define PREVER_TESTING_CRASH_RECOVERY_H_

#include <string>

#include "common/sim_clock.h"

namespace prever::simtest {

/// Where in the durability pipeline a seed-chosen crash lands. Beyond the
/// clean crash-stop, the damaging kinds model a kill in the middle of a
/// durable write: the harness mutilates the on-disk state exactly as an
/// interrupted write would, then restarts the replica.
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
/// ordering service with a data directory commits payloads while
/// seed-chosen replicas are killed at seed-chosen crash points, their
/// durable files are damaged per the crash point, and every victim restarts
/// through ReplicatedOrdering::RestartReplica.
struct CrashRecoveryOptions {
  size_t num_replicas = 4;
  size_t num_payloads = 48;
  /// Consensus positions between durable checkpoints; for PBFT also between
  /// stable checkpoints (message-log GC and the state a restarted replica
  /// fetches). Raft compacts its log at every durable checkpoint.
  uint64_t checkpoint_interval = 4;
  size_t max_crashes = 3;
  /// Max payloads committed by the survivors while a victim is down — forces
  /// the restarted replica to catch up past its own durable state.
  size_t max_gap = 4;
  /// The ordering's data directory (`<data_dir>/r<i>/` per replica); empty
  /// picks one under the system temp directory. The scenario removes it at
  /// the end. Must be writable and unique per concurrent scenario.
  std::string data_dir;
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

/// Raft: any replica may crash, replica 0 included (while it is down,
/// payloads are enqueued and commit after its restart). Final checks: every
/// payload committed exactly once on replica 0, all replica ledgers
/// digest-identical on their common prefix, and replica 0 restarted from
/// its durable record alone (checkpoint roots re-checked on load) holding
/// its live ledger.
CrashRecoveryReport RunRaftCrashRecoveryScenario(
    uint64_t seed, const CrashRecoveryOptions& options);

/// PBFT: same loop; victims are backups (replica 0 is the commit counter
/// the pipeline waits on) and at most f are down at once. Restart installs
/// the durably saved stable state, then fetches peer state to cover the
/// gap. Also checks that every message log is garbage-collected below the
/// stable checkpoint.
CrashRecoveryReport RunPbftCrashRecoveryScenario(
    uint64_t seed, const CrashRecoveryOptions& options);

}  // namespace prever::simtest

#endif  // PREVER_TESTING_CRASH_RECOVERY_H_
