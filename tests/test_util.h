#ifndef PREVER_TESTS_TEST_UTIL_H_
#define PREVER_TESTS_TEST_UTIL_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/sim_clock.h"
#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "core/ordering.h"
#include "core/update.h"
#include "ledger/ledger_db.h"
#include "storage/database.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace prever::core {

/// The crowdworking worklog table every engine test submits against
/// (PReVer's running example: regulated gig-work hour caps).
inline storage::Schema WorklogSchema() {
  return storage::Schema({{"id", storage::ValueType::kString},
                          {"worker", storage::ValueType::kString},
                          {"hours", storage::ValueType::kInt64},
                          {"at", storage::ValueType::kTimestamp}});
}

/// An insert of `hours` worked by `worker` at time `at`, with the public
/// routing fields (`worker`, `hours`) mirrored into `fields` the way every
/// engine expects.
inline Update MakeWorklogUpdate(const std::string& id,
                                const std::string& worker, int64_t hours,
                                SimTime at) {
  Update u;
  u.id = id;
  u.producer = worker;
  u.timestamp = at;
  u.fields = {{"worker", storage::Value::String(worker)},
              {"hours", storage::Value::Int64(hours)}};
  u.mutation.op = storage::Mutation::Op::kInsert;
  u.mutation.table = "worklog";
  u.mutation.row = {storage::Value::String(id), storage::Value::String(worker),
                    storage::Value::Int64(hours),
                    storage::Value::Timestamp(at)};
  return u;
}

/// An ordering service whose `fail_at`-th Append (zero-based) fails and
/// orders nothing; every other Append commits to its ledger.
class FailingAppendOrdering : public OrderingService {
 public:
  explicit FailingAppendOrdering(uint64_t fail_at) : fail_at_(fail_at) {}

  Status Append(const Bytes& payload, SimTime timestamp) override {
    if (appends_++ == fail_at_) {
      return Status::Unavailable("injected append failure");
    }
    ledger_.Append(payload, timestamp);
    return Status::Ok();
  }
  const ledger::LedgerDb& Ledger() const override { return ledger_; }
  uint64_t CommittedCount() const override { return ledger_.size(); }

 private:
  uint64_t fail_at_;
  uint64_t appends_ = 0;
  ledger::LedgerDb ledger_;
};

/// An ordering service whose `fail_at`-th Append (zero-based) gives up the
/// way a pipeline whose Flush timed out does: Unavailable, with the payload
/// still queued. Queued payloads commit, in order, on the next Flush that
/// succeeds or before the next Append; the first `failing_flushes` Flush
/// calls fail.
class DeferredAppendOrdering : public OrderingService {
 public:
  DeferredAppendOrdering(uint64_t fail_at, int failing_flushes)
      : fail_at_(fail_at), failing_flushes_(failing_flushes) {}

  Status Append(const Bytes& payload, SimTime timestamp) override {
    if (appends_++ == fail_at_) {
      queued_.push_back(payload);
      return Status::Unavailable("injected flush timeout");
    }
    CommitQueued();
    ledger_.Append(payload, timestamp);
    return Status::Ok();
  }
  Status Flush() override {
    if (failing_flushes_ > 0) {
      --failing_flushes_;
      return Status::Unavailable("injected flush timeout");
    }
    CommitQueued();
    return Status::Ok();
  }
  const ledger::LedgerDb& Ledger() const override { return ledger_; }
  uint64_t CommittedCount() const override { return ledger_.size(); }

 private:
  void CommitQueued() {
    for (const Bytes& p : queued_) ledger_.Append(p, 0);
    queued_.clear();
  }

  uint64_t fail_at_;
  int failing_flushes_;
  uint64_t appends_ = 0;
  std::vector<Bytes> queued_;
  ledger::LedgerDb ledger_;
};

}  // namespace prever::core

namespace prever {

/// Records, per replica, the commands a consensus cluster commits (PBFT) or
/// applies (Raft), in order, for tests that compare replica logs. Hooks the
/// cluster's commit callbacks, so it replaces any callback set before it.
class CommitRecorder {
 public:
  explicit CommitRecorder(consensus::PbftCluster& cluster)
      : logs_(cluster.size()) {
    cluster.SetCommitCallback(
        [this](net::NodeId replica, uint64_t /*seq*/, const Bytes& cmd) {
          logs_[replica].push_back(cmd);
        });
  }
  explicit CommitRecorder(consensus::RaftCluster& cluster)
      : logs_(cluster.size()) {
    for (size_t i = 0; i < cluster.size(); ++i) {
      cluster.replica(i).SetApplyCallback(
          [this, i](uint64_t /*index*/, const Bytes& cmd) {
            logs_[i].push_back(cmd);
          });
    }
  }

  /// Commands replica `i` committed, in order.
  const std::vector<Bytes>& Log(size_t i) const { return logs_[i]; }

 private:
  std::vector<std::vector<Bytes>> logs_;
};

}  // namespace prever

#endif  // PREVER_TESTS_TEST_UTIL_H_
