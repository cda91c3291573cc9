#ifndef PREVER_STORAGE_DATABASE_H_
#define PREVER_STORAGE_DATABASE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace prever::storage {

/// A single mutation against one table — the payload of a PReVer `Update`.
struct Mutation {
  enum class Op : uint8_t { kInsert = 0, kUpdate = 1, kUpsert = 2, kDelete = 3 };

  Op op = Op::kInsert;
  std::string table;
  Row row;     ///< For insert/update/upsert.
  Value key;   ///< For delete.

  void EncodeTo(BinaryWriter& w) const;
  static Result<Mutation> DecodeFrom(BinaryReader& r);
  Bytes Encode() const;
  static Result<Mutation> Decode(const Bytes& data);
};

/// Multi-table database owned by a data manager. It keeps no log of its
/// own and no checkpoint images it: engines apply an update only once it is
/// ordered (core::OrderThenApply), and a restarted manager must rebuild it
/// from the committed ledger (no code does yet; ROADMAP "Order-then-apply").
class Database {
 public:
  Database() = default;

  Status CreateTable(const std::string& name, const Schema& schema);
  Result<const Table*> GetTable(const std::string& name) const;
  Result<Table*> GetMutableTable(const std::string& name);

  /// Apply's validation (table, schema, key present or absent as the op
  /// needs), changing nothing: engines check before they order.
  Status Check(const Mutation& mutation) const;

  /// Validates and applies one mutation.
  Status Apply(const Mutation& mutation);

  /// Number of successfully applied mutations (the database version).
  uint64_t version() const { return version_; }

  /// Commit observers: invoked after every successfully applied mutation,
  /// with the mutation and the post-commit version.
  /// Incremental verification caches hang off this hook to fold committed
  /// deltas into their aggregates. Observers must not mutate the database.
  using CommitObserver = std::function<void(const Mutation&, uint64_t)>;

  /// Registers an observer; returns an id for RemoveCommitObserver.
  uint64_t AddCommitObserver(CommitObserver observer);
  void RemoveCommitObserver(uint64_t id);

 private:
  std::map<std::string, Table> tables_;
  uint64_t version_ = 0;
  std::vector<std::pair<uint64_t, CommitObserver>> observers_;
  uint64_t next_observer_id_ = 1;
};

}  // namespace prever::storage

#endif  // PREVER_STORAGE_DATABASE_H_
