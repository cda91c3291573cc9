#ifndef PREVER_TESTING_INVARIANTS_H_
#define PREVER_TESTING_INVARIANTS_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "consensus/pbft.h"
#include "consensus/raft.h"

namespace prever::simtest {

/// Generic linearizability-style checker for state-machine replication:
/// validates every committed (position, command) observation against a
/// single-copy model of the log. Catches divergence (two replicas execute
/// different commands at one position), gaps, and duplicate execution of a
/// position — for any protocol that claims total-order delivery.
class SingleCopyChecker {
 public:
  explicit SingleCopyChecker(size_t num_replicas);

  /// Replica `replica` executed `command` at 0-based log position `pos`.
  /// Positions must be observed contiguously per replica.
  Status Observe(size_t replica, uint64_t pos, const Bytes& command);

  /// The single-copy history all replicas must follow.
  const std::vector<Bytes>& history() const { return history_; }

  /// Every committed command must come from `submitted` (no fabrication).
  Status CheckProvenance(const std::set<Bytes>& submitted) const;

  /// Positions executed by replica `replica` so far.
  uint64_t executed(size_t replica) const { return next_[replica]; }

 private:
  std::vector<Bytes> history_;
  std::vector<uint64_t> next_;
};

/// Raft safety invariants, checked incrementally so CheckStep is cheap
/// enough to run after every drained network event.
class RaftInvariantChecker {
 public:
  explicit RaftInvariantChecker(consensus::RaftCluster* cluster);

  /// Election safety (at most one leader per term) + committed-prefix
  /// agreement for entries newly committed since the last call.
  Status CheckStep();

  /// Full Log Matching Property over all replica pairs: if two logs agree
  /// on (index, term) then they are identical up to that index. O(n^2 * len);
  /// run periodically and at the end of a scenario.
  Status CheckLogMatching() const;

  uint64_t max_commit_index() const;

 private:
  consensus::RaftCluster* cluster_;
  std::map<uint64_t, net::NodeId> leader_by_term_;
  /// index -> (term, command) fixed at first commit observation.
  std::map<uint64_t, std::pair<uint64_t, Bytes>> committed_;
  std::vector<uint64_t> verified_commit_;  ///< Per replica.
};

/// PBFT safety: agreement + total order are delegated to a SingleCopyChecker
/// fed from the commit callback; this wrapper adds view-change sanity
/// (executed sequences only grow) and a no-duplicate-command check that is
/// valid when no replica equivocates.
class PbftInvariantChecker {
 public:
  explicit PbftInvariantChecker(consensus::PbftCluster* cluster,
                                bool byzantine_primary_possible);

  /// Wire this into PbftCluster::SetCommitCallback. Positions come from
  /// per-replica execution order, not raw sequence numbers: execution-level
  /// dedup may skip a slot (see PbftReplica::TryExecute), which leaves a
  /// legitimate gap in the callback's sequence numbers. Sequence numbers
  /// are still required to be strictly increasing per replica.
  Status OnCommit(net::NodeId replica, uint64_t seq, const Bytes& command);

  /// Executed counters must never move backwards (view changes must not
  /// roll back execution).
  Status CheckStep();

  Status CheckProvenance(const std::set<Bytes>& submitted) const;

  const SingleCopyChecker& single_copy() const { return checker_; }

 private:
  consensus::PbftCluster* cluster_;
  bool byzantine_primary_possible_;
  SingleCopyChecker checker_;
  std::vector<uint64_t> last_executed_;
  std::vector<uint64_t> last_seq_;  ///< Last callback seq per replica.
  std::set<Bytes> seen_commands_;
  std::string first_violation_;
};

}  // namespace prever::simtest

#endif  // PREVER_TESTING_INVARIANTS_H_
