#include "storage/database.h"

namespace prever::storage {

void Mutation::EncodeTo(BinaryWriter& w) const {
  w.WriteU8(static_cast<uint8_t>(op));
  w.WriteString(table);
  if (op == Op::kDelete) {
    key.EncodeTo(w);
  } else {
    w.WriteU32(static_cast<uint32_t>(row.size()));
    for (const Value& v : row) v.EncodeTo(w);
  }
}

Result<Mutation> Mutation::DecodeFrom(BinaryReader& r) {
  Mutation m;
  PREVER_ASSIGN_OR_RETURN(uint8_t op, r.ReadU8());
  if (op > static_cast<uint8_t>(Op::kDelete)) {
    return Status::Corruption("bad mutation op");
  }
  m.op = static_cast<Op>(op);
  PREVER_ASSIGN_OR_RETURN(m.table, r.ReadString());
  if (m.op == Op::kDelete) {
    PREVER_ASSIGN_OR_RETURN(m.key, Value::DecodeFrom(r));
  } else {
    PREVER_ASSIGN_OR_RETURN(uint32_t n, r.ReadU32());
    m.row.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      PREVER_ASSIGN_OR_RETURN(Value v, Value::DecodeFrom(r));
      m.row.push_back(std::move(v));
    }
  }
  return m;
}

Bytes Mutation::Encode() const {
  BinaryWriter w;
  EncodeTo(w);
  return w.Take();
}

Result<Mutation> Mutation::Decode(const Bytes& data) {
  BinaryReader r(data);
  PREVER_ASSIGN_OR_RETURN(Mutation m, DecodeFrom(r));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after mutation");
  return m;
}

namespace {

/// What each op needs of its key, indexed by Mutation::Op.
constexpr Table::KeyRule kKeyRule[] = {
    Table::KeyRule::kAbsent, Table::KeyRule::kPresent, Table::KeyRule::kAny,
    Table::KeyRule::kPresent};

}  // namespace

Status Database::CreateTable(const std::string& name, const Schema& schema) {
  auto [it, inserted] = tables_.emplace(name, Table(name, schema));
  if (!inserted) return Status::AlreadyExists("table '" + name + "' exists");
  return Status::Ok();
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table '" + name + "'");
  return &it->second;
}

Result<Table*> Database::GetMutableTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table '" + name + "'");
  return &it->second;
}

Status Database::Check(const Mutation& mutation) const {
  PREVER_ASSIGN_OR_RETURN(const Table* table, GetTable(mutation.table));
  const Table::KeyRule rule = kKeyRule[static_cast<size_t>(mutation.op)];
  return mutation.op == Mutation::Op::kDelete
             ? table->CheckKey(mutation.key, rule)
             : table->CheckRow(mutation.row, rule);
}

Status Database::Apply(const Mutation& mutation) {
  PREVER_ASSIGN_OR_RETURN(Table * table, GetMutableTable(mutation.table));
  const Table::KeyRule rule = kKeyRule[static_cast<size_t>(mutation.op)];
  PREVER_RETURN_IF_ERROR(mutation.op == Mutation::Op::kDelete
                             ? table->Delete(mutation.key)
                             : table->Put(mutation.row, rule));
  ++version_;
  for (const auto& [id, observer] : observers_) observer(mutation, version_);
  return Status::Ok();
}

uint64_t Database::AddCommitObserver(CommitObserver observer) {
  uint64_t id = next_observer_id_++;
  observers_.emplace_back(id, std::move(observer));
  return id;
}

void Database::RemoveCommitObserver(uint64_t id) {
  for (auto it = observers_.begin(); it != observers_.end(); ++it) {
    if (it->first == id) {
      observers_.erase(it);
      return;
    }
  }
}

}  // namespace prever::storage
