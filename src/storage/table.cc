#include "storage/table.h"

namespace prever::storage {

Status Table::CheckPresence(const Value& key, KeyRule rule,
                            bool present) const {
  if (rule == KeyRule::kAbsent && present) {
    return Status::AlreadyExists("key " + key.ToString() +
                                 " already present in table '" + name_ + "'");
  }
  if (rule == KeyRule::kPresent && !present) {
    return Status::NotFound("key " + key.ToString() + " not in table '" +
                            name_ + "'");
  }
  return Status::Ok();
}

Status Table::Locate(const Row& row, KeyRule rule, Value* key,
                     RowMap::const_iterator* at) const {
  PREVER_RETURN_IF_ERROR(schema_.ValidateRow(row));
  PREVER_ASSIGN_OR_RETURN(*key, schema_.KeyOf(row));
  *at = rows_.lower_bound(*key);
  return CheckPresence(*key, rule,
                       *at != rows_.end() && !(*key < (*at)->first));
}

Status Table::Put(const Row& row, KeyRule rule) {
  Value key;
  RowMap::const_iterator at;
  PREVER_RETURN_IF_ERROR(Locate(row, rule, &key, &at));
  rows_.insert_or_assign(at, std::move(key), row);
  ++mod_count_;
  return Status::Ok();
}

Status Table::Delete(const Value& key) {
  auto it = rows_.find(key);
  PREVER_RETURN_IF_ERROR(
      CheckPresence(key, KeyRule::kPresent, it != rows_.end()));
  rows_.erase(it);
  ++mod_count_;
  return Status::Ok();
}

Result<Row> Table::Get(const Value& key) const {
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    return Status::NotFound("key " + key.ToString() + " not in table '" +
                            name_ + "'");
  }
  return it->second;
}

bool Table::Contains(const Value& key) const { return rows_.count(key) > 0; }

void Table::Scan(const std::function<bool(const Row&)>& visitor) const {
  for (const auto& [key, row] : rows_) {
    if (!visitor(row)) return;
  }
}

}  // namespace prever::storage
