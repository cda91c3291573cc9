#include "constraint/agg_cache.h"

#include <algorithm>

#include "mutate/mutation.h"

namespace prever::constraint {

namespace {

using storage::Mutation;
using storage::Row;
using storage::Value;
using storage::ValueType;

int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

bool IsNumericType(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kTimestamp;
}

/// Group keys are normalized through the comparison's coercion rules so a
/// timestamp column matched against an int64 update field (or vice versa)
/// lands in the same group the interpreter's `=` would select.
bool NormalizeGroupKey(const Value& v, ValueType column_type, Value* out) {
  Value key;
  if (IsNumericType(column_type)) {
    auto n = v.AsNumeric();
    if (!n.ok()) return false;
    key = Value::Int64(*n);
  } else if (column_type == ValueType::kString) {
    if (!v.is_string()) return false;
    key = v;
  } else {  // kBool: the interpreter only supports = / != on bools.
    if (!v.is_bool()) return false;
    key = v;
  }
  *out = PREVER_MUTATION(AGG_CACHE_GROUP_COLLAPSE, key, Value::Int64(0));
  return true;
}

}  // namespace

AggregateCache::SpecCache& AggregateCache::GetOrBind(
    const AggregateSpec& spec, const storage::Schema& schema) {
  auto& up = specs_[&spec];
  if (up) return *up;
  up = std::make_unique<SpecCache>();
  SpecCache& sc = *up;
  auto bound = BindSpec(spec, schema);
  if (!bound.ok()) {
    sc.bind_status = bound.status();
    return sc;
  }
  sc.bound = std::move(*bound);
  sc.bound_ok = true;
  sc.needs_value = !spec.exists && spec.agg != AggregateKind::kCount;
  sc.cacheable = spec.cache_candidate && !sc.bound.row_pred_reads_update;
  if (sc.needs_value && !IsNumericType(sc.bound.column_type)) {
    sc.cacheable = false;  // Scan path owns the per-row AsNumeric error.
  }
  if (!spec.group_column.empty()) {
    auto idx = schema.ColumnIndex(spec.group_column);
    if (!idx.ok()) {
      // The "column" in the selector is actually an update-field alias;
      // the scan path resolves it dynamically.
      sc.cacheable = false;
    } else {
      sc.has_group = true;
      sc.group_col_idx = *idx;
      sc.group_col_type = schema.columns()[*idx].type;
    }
  }
  return sc;
}

Status AggregateCache::FoldRow(SpecCache& sc, const AggregateSpec& spec,
                               const Row& row, bool is_delta) {
  if (!sc.bound.row_pred.insns.empty()) {
    EvalContext pred_ctx;
    // Row predicates in the cacheable class are update-free by
    // construction; the schema is only needed for row loads.
    RowView rv{nullptr, &row};
    PREVER_ASSIGN_OR_RETURN(RegVal pred,
                            RunScalar(sc.bound.row_pred, pred_ctx, &rv, nullptr));
    if (pred.tag != RegVal::Tag::kBool) {
      return Status::InvalidArgument("row predicate is not boolean");
    }
    if (!pred.b) return Status::Ok();
  }
  GroupState* g = &sc.global;
  if (sc.has_group) {
    Value key;
    if (!NormalizeGroupKey(row[sc.group_col_idx], sc.group_col_type, &key)) {
      // Schema-validated rows always match the column type; treat a
      // mismatch as poison so the scan path takes over.
      return Status::Internal("group key type mismatch");
    }
    g = &sc.groups[key];
  }
  int64_t v = 0;
  if (sc.needs_value) {
    PREVER_ASSIGN_OR_RETURN(v, row[sc.bound.column_idx].AsNumeric());
  }
  g->all.Add(v);
  if (spec.window != 0) {
    PREVER_ASSIGN_OR_RETURN(SimTime ts, row[sc.bound.ts_idx].AsTimestamp());
    if (!is_delta) {
      g->entries.emplace_back(ts, v);  // Sorted once after the build scan.
      return Status::Ok();
    }
    const size_t idx = g->entries.size();
    if (g->entries.empty() || ts >= g->entries.back().first) {
      g->entries.emplace_back(ts, v);
      if (g->cursor_valid) {
        if (ts > g->cur_now) {
          // Beyond the cursor's hi edge; picked up when `now` advances.
        } else if (ts > g->cur_start) {
          if (idx != g->hi) {
            g->cursor_valid = false;  // Future rows already beyond hi.
          } else {
            ++g->win_count;
            g->win_sum = WrapAdd(g->win_sum, v);
            PushWindowIndex(*g, idx);
            g->hi = idx + 1;
          }
        } else {
          // Older than the window; only reachable when the window is empty
          // (sorted append ⇒ every in-window entry would precede it).
          if (g->lo == g->hi && g->hi == idx) {
            g->lo = g->hi = idx + 1;
          } else {
            g->cursor_valid = false;
          }
        }
      }
    } else {
      // Out-of-order timestamp: sorted insert, cursor rebuilt on demand.
      auto it = std::upper_bound(
          g->entries.begin(), g->entries.end(), std::make_pair(ts, v),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      g->entries.insert(it, {ts, v});
      g->cursor_valid = false;
      g->min_dq.clear();
      g->max_dq.clear();
    }
  }
  return Status::Ok();
}

void AggregateCache::PushWindowIndex(GroupState& g, size_t idx) {
  const int64_t v = g.entries[idx].second;
  while (!g.min_dq.empty() && g.entries[g.min_dq.back()].second >= v) {
    g.min_dq.pop_back();
  }
  g.min_dq.push_back(idx);
  while (!g.max_dq.empty() && g.entries[g.max_dq.back()].second <= v) {
    g.max_dq.pop_back();
  }
  g.max_dq.push_back(idx);
}

void AggregateCache::AdvanceCursor(GroupState& g, SimTime start,
                                   SimTime now) const {
  if (g.cursor_valid && g.cur_start == start && g.cur_now == now) return;
  if (g.cursor_valid && start >= g.cur_start && now >= g.cur_now) {
    // Monotone advancement: O(1) amortized — each entry enters and leaves
    // the window at most once over the cursor's lifetime.
    while (g.hi < g.entries.size() && g.entries[g.hi].first <= now) {
      ++g.win_count;
      g.win_sum = WrapAdd(g.win_sum, g.entries[g.hi].second);
      PushWindowIndex(g, g.hi);
      ++g.hi;
    }
    while (g.lo < g.hi && g.entries[g.lo].first <= start) {
      --g.win_count;
      g.win_sum = PREVER_MUTATION(AGG_CACHE_EVICT_SKIP,
                                  WrapSub(g.win_sum, g.entries[g.lo].second),
                                  g.win_sum);
      ++g.lo;
    }
    while (!g.min_dq.empty() && g.min_dq.front() < g.lo) g.min_dq.pop_front();
    while (!g.max_dq.empty() && g.max_dq.front() < g.lo) g.max_dq.pop_front();
    g.cur_start = start;
    g.cur_now = now;
    return;
  }
  // Regression (time moved backwards or an out-of-order insert landed):
  // reposition both edges against the sorted entries and refold.
  auto first_after = [&](SimTime t) {
    return static_cast<size_t>(
        std::upper_bound(g.entries.begin(), g.entries.end(), t,
                         [](SimTime lhs, const auto& e) {
                           return lhs < e.first;
                         }) -
        g.entries.begin());
  };
  g.lo = first_after(start);
  g.hi = first_after(now);
  if (g.hi < g.lo) g.hi = g.lo;
  g.win_count = 0;
  g.win_sum = 0;
  g.min_dq.clear();
  g.max_dq.clear();
  for (size_t i = g.lo; i < g.hi; ++i) {
    ++g.win_count;
    g.win_sum = WrapAdd(g.win_sum, g.entries[i].second);
    PushWindowIndex(g, i);
  }
  g.cursor_valid = true;
  g.cur_start = start;
  g.cur_now = now;
}

Result<Value> AggregateCache::FinishGroup(const AggregateSpec& spec,
                                          const GroupState* g, SimTime start,
                                          SimTime now,
                                          bool* needs_write) const {
  if (needs_write != nullptr) *needs_write = false;
  if (g == nullptr) return FoldState{}.Finish(spec);
  if (spec.window == 0) return g->all.Finish(spec);
  if (!g->cursor_valid || g->cur_start != start || g->cur_now != now) {
    if (needs_write != nullptr) {
      *needs_write = true;
      return Status::Internal("cursor not positioned");
    }
  }
  FoldState f;
  f.count = g->win_count;
  f.sum = g->win_sum;
  if (g->win_count > 0) {
    f.min = g->entries[g->min_dq.front()].second;
    f.max = g->entries[g->max_dq.front()].second;
  }
  return f.Finish(spec);
}

Status AggregateCache::BuildSpec(SpecCache& sc, const AggregateSpec& spec,
                                 const storage::Table& table) {
  sc.groups.clear();
  sc.global = GroupState{};
  Status err;
  table.Scan([&](const Row& row) {
    Status s = FoldRow(sc, spec, row, /*is_delta=*/false);
    if (!s.ok()) {
      err = s;
      return false;
    }
    return true;
  });
  if (!err.ok()) {
    // Poison: a row predicate errored on some (possibly out-of-window) row.
    // The scan path reproduces the interpreter's exact behavior, including
    // *not* erroring when that row never enters any window.
    sc.cacheable = false;
    sc.groups.clear();
    sc.global = GroupState{};
    return err;
  }
  auto sort_entries = [](GroupState& g) {
    std::stable_sort(g.entries.begin(), g.entries.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    g.cursor_valid = false;
  };
  sort_entries(sc.global);
  for (auto& [key, g] : sc.groups) sort_entries(g);
  sc.built = true;
  sc.synced_mod = table.mod_count();
  ++stats_.cache_builds;
  return Status::Ok();
}

Result<Value> AggregateCache::Evaluate(const AggregateSpec& spec,
                                       const EvalContext& ctx) {
  if (ctx.db == nullptr) {
    return Status::InvalidArgument("no database bound for aggregate");
  }
  PREVER_ASSIGN_OR_RETURN(const storage::Table* table,
                          ctx.db->GetTable(spec.table));
  SpecCache& sc = GetOrBind(spec, table->schema());
  if (!sc.bound_ok) return sc.bind_status;
  auto scan = [&]() {
    ++stats_.scan_evals;
    return EvaluateSpecByScan(sc.bound, ctx);
  };
  if (!sc.cacheable) return scan();

  // Resolve the group key first: an absent or type-incompatible update
  // field has per-row error semantics only the scan path reproduces.
  Value key;
  if (sc.has_group) {
    if (ctx.update == nullptr) return scan();
    auto it = ctx.update->find(spec.group_update_field);
    if (it == ctx.update->end()) return scan();
    if (!NormalizeGroupKey(it->second, sc.group_col_type, &key)) return scan();
  }

  if (!sc.built || sc.synced_mod != table->mod_count()) {
    Status built = BuildSpec(sc, spec, *table);
    if (!built.ok()) return scan();  // Poisoned: scan from now on.
  }

  GroupState* g = nullptr;
  if (sc.has_group) {
    auto it = sc.groups.find(key);
    g = it == sc.groups.end() ? nullptr : &it->second;
  } else {
    g = &sc.global;
  }
  const SimTime start = WindowStart(spec.window, ctx.now);
  if (g != nullptr && spec.window != 0) AdvanceCursor(*g, start, ctx.now);
  ++stats_.cache_hits;
  return FinishGroup(spec, g, start, ctx.now, nullptr);
}

bool AggregateCache::TryReadEvaluate(const AggregateSpec& spec,
                                     const EvalContext& ctx,
                                     Result<Value>* out) const {
  // NOTE: runs under a shared lock — no stats updates, no mutation.
  auto it = specs_.find(&spec);
  if (it == specs_.end()) return false;
  const SpecCache& sc = *it->second;
  if (!sc.bound_ok) {
    *out = sc.bind_status;
    return true;
  }
  if (!sc.cacheable || !sc.built) return false;
  if (ctx.db == nullptr) return false;
  auto table = ctx.db->GetTable(spec.table);
  if (!table.ok() || sc.synced_mod != (*table)->mod_count()) return false;

  const GroupState* g = nullptr;
  if (sc.has_group) {
    if (ctx.update == nullptr) return false;
    auto field = ctx.update->find(spec.group_update_field);
    if (field == ctx.update->end()) return false;
    Value key;
    if (!NormalizeGroupKey(field->second, sc.group_col_type, &key)) {
      return false;
    }
    auto git = sc.groups.find(key);
    g = git == sc.groups.end() ? nullptr : &git->second;
  } else {
    g = &sc.global;
  }
  const SimTime start = WindowStart(spec.window, ctx.now);
  bool needs_write = false;
  Result<Value> r = FinishGroup(spec, g, start, ctx.now, &needs_write);
  if (needs_write) return false;
  *out = std::move(r);
  return true;
}

void AggregateCache::OnCommitted(const Mutation& mutation) {
  for (auto& [spec, sc] : specs_) {
    if (spec->table != mutation.table) continue;
    if (!sc->bound_ok || !sc->cacheable || !sc->built) continue;
    // The observer fires once per successful Apply, so the synced counter
    // stays in lock-step with the table's mod_count without re-reading it.
    ++sc->synced_mod;
    if (mutation.op == Mutation::Op::kInsert) {
      if (PREVER_MUTATION(AGG_CACHE_DELTA_SKIP, true, false)) {
        Status folded = FoldRow(*sc, *spec, mutation.row, /*is_delta=*/true);
        if (!folded.ok()) {
          sc->cacheable = false;
          sc->built = false;
          sc->groups.clear();
          sc->global = GroupState{};
          continue;
        }
        ++stats_.delta_applies;
      }
    } else {
      // Update/upsert/delete mutate or remove existing rows: running
      // MIN/MAX (and group membership) cannot be decremented, so bump the
      // epoch — the next query rebuilds from a fresh scan.
      if (PREVER_MUTATION(AGG_CACHE_EPOCH_SKIP, true, false)) {
        sc->built = false;
        sc->groups.clear();
        sc->global = GroupState{};
        ++stats_.invalidations;
      }
    }
  }
}

}  // namespace prever::constraint
