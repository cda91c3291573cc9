#ifndef PREVER_STORAGE_TABLE_H_
#define PREVER_STORAGE_TABLE_H_

#include <functional>
#include <map>
#include <string>

#include "common/status.h"
#include "storage/schema.h"

namespace prever::storage {

/// In-memory table keyed by the schema's primary-key column. Iteration order
/// is key order (std::map) so scans are deterministic — important because
/// scan results feed hashed ledger entries.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }

  /// What a mutation needs of its key (insert: absent; update, delete:
  /// present; upsert: either).
  enum class KeyRule : uint8_t { kAbsent, kPresent, kAny };

  /// Every mutation's one validation path, changing nothing: AlreadyExists
  /// or NotFound when `key` breaks `rule`; CheckRow adds the schema check.
  Status CheckKey(const Value& key, KeyRule rule) const {
    return CheckPresence(key, rule, rows_.count(key) > 0);
  }
  Status CheckRow(const Row& row, KeyRule rule) const {
    Value key;
    RowMap::const_iterator at;
    return Locate(row, rule, &key, &at);
  }

  /// Stores `row` under its key once CheckRow(row, rule) passes.
  Status Put(const Row& row, KeyRule rule);

  /// Inserts a new row; AlreadyExists if the key is taken.
  Status Insert(const Row& row) { return Put(row, KeyRule::kAbsent); }

  /// Replaces an existing row (same key); NotFound if absent.
  Status Update(const Row& row) { return Put(row, KeyRule::kPresent); }

  /// Inserts or replaces.
  Status Upsert(const Row& row) { return Put(row, KeyRule::kAny); }

  /// Removes by key; NotFound if absent.
  Status Delete(const Value& key);

  /// Point lookup.
  Result<Row> Get(const Value& key) const;
  bool Contains(const Value& key) const;

  /// Full scan in key order. Return false from the visitor to stop early.
  void Scan(const std::function<bool(const Row&)>& visitor) const;

  /// Monotone count of successful mutations against this table. Aggregate
  /// caches key their validity on it, so even direct Table mutations
  /// (bypassing Database::Apply) invalidate them.
  uint64_t mod_count() const { return mod_count_; }

 private:
  using RowMap = std::map<Value, Row>;

  Status CheckPresence(const Value& key, KeyRule rule, bool present) const;
  /// CheckRow's work. Sets `key` to the row's key and `at` to its lower
  /// bound in rows_, Put's insert hint, so a mutation looks its key up once.
  Status Locate(const Row& row, KeyRule rule, Value* key,
                RowMap::const_iterator* at) const;

  std::string name_;
  Schema schema_;
  RowMap rows_;
  uint64_t mod_count_ = 0;
};

}  // namespace prever::storage

#endif  // PREVER_STORAGE_TABLE_H_
