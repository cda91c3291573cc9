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

}  // namespace

// ------------------------------------------------------- SingleCopyChecker

SingleCopyChecker::SingleCopyChecker(size_t num_replicas)
    : next_(num_replicas, 0) {}

Status SingleCopyChecker::Observe(size_t replica, uint64_t pos,
                                  const Bytes& command) {
  if (replica >= next_.size()) {
    return Status::InvalidArgument("unknown replica");
  }
  if (pos != next_[replica]) {
    return Status::IntegrityViolation(
        "replica " + std::to_string(replica) + " executed position " +
        std::to_string(pos) + " but its next contiguous position is " +
        std::to_string(next_[replica]) + " (gap or re-execution)");
  }
  if (pos < history_.size()) {
    if (history_[pos] != command) {
      return Status::IntegrityViolation(
          "divergence at position " + std::to_string(pos) + ": replica " +
          std::to_string(replica) + " executed \"" + Preview(command) +
          "\" but the committed history holds \"" + Preview(history_[pos]) +
          "\"");
    }
  } else {
    history_.push_back(command);
  }
  ++next_[replica];
  return Status::Ok();
}

Status SingleCopyChecker::CheckProvenance(
    const std::set<Bytes>& submitted) const {
  for (size_t i = 0; i < history_.size(); ++i) {
    if (submitted.count(history_[i]) == 0) {
      return Status::IntegrityViolation(
          "committed command at position " + std::to_string(i) + " (\"" +
          Preview(history_[i]) + "\") was never submitted");
    }
  }
  return Status::Ok();
}

// --------------------------------------------------- RaftInvariantChecker

RaftInvariantChecker::RaftInvariantChecker(consensus::RaftCluster* cluster)
    : cluster_(cluster), verified_commit_(cluster->size(), 0) {}

uint64_t RaftInvariantChecker::max_commit_index() const {
  uint64_t max_commit = 0;
  for (size_t i = 0; i < cluster_->size(); ++i) {
    max_commit = std::max(max_commit, cluster_->replica(i).commit_index());
  }
  return max_commit;
}

Status RaftInvariantChecker::CheckStep() {
  // Election safety: at most one leader per term.
  for (size_t i = 0; i < cluster_->size(); ++i) {
    consensus::RaftReplica& r = cluster_->replica(i);
    if (r.crashed() || r.role() != consensus::RaftReplica::Role::kLeader) {
      continue;
    }
    auto [it, inserted] = leader_by_term_.emplace(r.term(), r.id());
    if (!inserted && it->second != r.id()) {
      return Status::IntegrityViolation(
          "election safety violated: term " + std::to_string(r.term()) +
          " has two leaders (" + std::to_string(it->second) + " and " +
          std::to_string(r.id()) + ")");
    }
  }
  // Committed-prefix agreement: each entry is pinned (term, command) at the
  // first commit observation; every replica's newly committed entries must
  // match the pinned record.
  for (size_t i = 0; i < cluster_->size(); ++i) {
    consensus::RaftReplica& r = cluster_->replica(i);
    for (uint64_t k = verified_commit_[i] + 1; k <= r.commit_index(); ++k) {
      if (k <= r.snapshot_index()) continue;  // Compacted; command is gone.
      const Bytes* cmd = r.CommandAt(k);
      if (cmd == nullptr) {
        return Status::IntegrityViolation(
            "replica " + std::to_string(i) + " committed index " +
            std::to_string(k) + " beyond its log (length " +
            std::to_string(r.log_size()) + ")");
      }
      uint64_t term = r.TermAt(k);
      auto [it, inserted] = committed_.emplace(
          k, std::make_pair(term, *cmd));
      if (!inserted &&
          (it->second.first != term || it->second.second != *cmd)) {
        return Status::IntegrityViolation(
            "commit agreement violated at index " + std::to_string(k) +
            ": replica " + std::to_string(i) + " committed term " +
            std::to_string(term) + " \"" + Preview(*cmd) +
            "\" but the entry was first committed as term " +
            std::to_string(it->second.first) + " \"" +
            Preview(it->second.second) + "\"");
      }
    }
    verified_commit_[i] = r.commit_index();
  }
  return Status::Ok();
}

Status RaftInvariantChecker::CheckLogMatching() const {
  for (size_t i = 0; i < cluster_->size(); ++i) {
    for (size_t j = i + 1; j < cluster_->size(); ++j) {
      consensus::RaftReplica& a = cluster_->replica(i);
      consensus::RaftReplica& b = cluster_->replica(j);
      uint64_t len = std::min<uint64_t>(a.log_size(), b.log_size());
      // Find the highest shared (index, term) agreement point…
      uint64_t agree = 0;
      for (uint64_t k = len; k >= 1; --k) {
        if (a.TermAt(k) == b.TermAt(k)) {
          agree = k;
          break;
        }
      }
      // …then everything at or below it must be identical. Entries either
      // replica compacted away have no command to compare; agreement there
      // is implied (snapshots cover only committed, hence agreed, prefixes).
      uint64_t floor =
          std::max<uint64_t>(a.snapshot_index(), b.snapshot_index());
      for (uint64_t k = floor + 1; k <= agree; ++k) {
        if (a.TermAt(k) != b.TermAt(k) ||
            *a.CommandAt(k) != *b.CommandAt(k)) {
          return Status::IntegrityViolation(
              "log matching violated between replicas " + std::to_string(i) +
              " and " + std::to_string(j) + ": they agree at index " +
              std::to_string(agree) + " (term " + std::to_string(a.TermAt(agree)) +
              ") but differ at index " + std::to_string(k));
        }
      }
    }
  }
  return Status::Ok();
}

// --------------------------------------------------- PbftInvariantChecker

PbftInvariantChecker::PbftInvariantChecker(consensus::PbftCluster* cluster,
                                           bool byzantine_primary_possible)
    : cluster_(cluster),
      byzantine_primary_possible_(byzantine_primary_possible),
      checker_(cluster->size()),
      last_executed_(cluster->size(), 0),
      last_seq_(cluster->size(), 0) {}

Status PbftInvariantChecker::OnCommit(net::NodeId replica, uint64_t seq,
                                      const Bytes& command) {
  if (replica >= last_seq_.size()) {
    return Status::InvalidArgument("unknown replica");
  }
  // Sequence numbers are 1-based and contiguous per replica: every
  // committed slot is delivered, duplicates included (the application
  // dedups). The one jump is past a state install, to the seq right above
  // the installed stable checkpoint.
  const uint64_t installed = cluster_->replica(replica).stable_checkpoint_seq();
  if (seq != last_seq_[replica] + 1 &&
      !(installed > last_seq_[replica] && seq == installed + 1)) {
    Status bad = Status::IntegrityViolation(
        "replica " + std::to_string(replica) + " executed seq " +
        std::to_string(seq) + " after seq " +
        std::to_string(last_seq_[replica]) + " (gap or re-execution)");
    if (first_violation_.empty()) first_violation_ = bad.message();
    return bad;
  }
  last_seq_[replica] = seq;
  size_t history_before = checker_.history().size();
  Status s = checker_.Observe(replica, checker_.executed(replica), command);
  if (!s.ok()) {
    if (first_violation_.empty()) first_violation_ = s.message();
    return s;
  }
  if (!byzantine_primary_possible_ &&
      checker_.history().size() > history_before) {
    // New history entry: the scenario's client re-sends only commands no
    // replica executed yet, and an honest primary proposes a pending
    // request once.
    if (!seen_commands_.insert(command).second) {
      Status dup = Status::IntegrityViolation(
          "command \"" + Preview(command) +
          "\" executed at two different sequence numbers");
      if (first_violation_.empty()) first_violation_ = dup.message();
      return dup;
    }
  }
  return Status::Ok();
}

Status PbftInvariantChecker::CheckStep() {
  for (size_t i = 0; i < cluster_->size(); ++i) {
    uint64_t executed = cluster_->replica(i).num_executed();
    if (executed < last_executed_[i]) {
      return Status::IntegrityViolation(
          "replica " + std::to_string(i) + " rolled back execution: " +
          std::to_string(last_executed_[i]) + " -> " +
          std::to_string(executed));
    }
    last_executed_[i] = executed;
  }
  if (!first_violation_.empty()) {
    return Status::IntegrityViolation(first_violation_);
  }
  return Status::Ok();
}

Status PbftInvariantChecker::CheckProvenance(
    const std::set<Bytes>& submitted) const {
  if (byzantine_primary_possible_) {
    // A Byzantine primary may fabricate commands; provenance is not a
    // safety property in that regime (real deployments pin it with client
    // signatures, which this simulation does not model).
    return Status::Ok();
  }
  return checker_.CheckProvenance(submitted);
}

}  // namespace prever::simtest
