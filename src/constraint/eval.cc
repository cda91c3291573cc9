#include "constraint/eval.h"

#include <limits>
#include <set>

#include "mutate/mutation.h"

namespace prever::constraint {

namespace {

using storage::Row;
using storage::Value;

/// Row-scoped context used inside aggregate predicates: bare fields resolve
/// against the scanned row, `update.` fields against the update, and
/// `outer.` fields against the enclosing scan's row (correlated nesting).
struct RowContext {
  const EvalContext* outer;
  const storage::Schema* schema;
  const Row* row;
  const RowContext* parent = nullptr;
};

Result<Value> EvaluateImpl(const Expr& expr, const EvalContext& ctx,
                           const RowContext* row_ctx);

Result<Value> LookupField(const Expr& expr, const EvalContext& ctx,
                          const RowContext* row_ctx) {
  // `outer.x`: the enclosing scan's row in a correlated nested predicate.
  if (expr.qualifier == "outer") {
    if (row_ctx == nullptr || row_ctx->parent == nullptr) {
      return Status::InvalidArgument("outer." + expr.field +
                                     " used without an enclosing scan");
    }
    const RowContext* parent = row_ctx->parent;
    PREVER_ASSIGN_OR_RETURN(size_t idx,
                            parent->schema->ColumnIndex(expr.field));
    return (*parent->row)[idx];
  }
  // `update.x` (the incoming update's fields).
  if (expr.qualifier == "update") {
    if (ctx.update == nullptr) {
      return Status::InvalidArgument("no update bound for update." +
                                     expr.field);
    }
    auto it = ctx.update->find(expr.field);
    if (it == ctx.update->end()) {
      return Status::InvalidArgument("update has no field '" + expr.field +
                                     "'");
    }
    return it->second;
  }
  if (!expr.qualifier.empty()) {
    return Status::InvalidArgument("unknown qualifier '" + expr.qualifier +
                                   "'");
  }
  // Bare identifier: row column inside an aggregate, then the FORALL group
  // binding, then update fields.
  if (row_ctx != nullptr) {
    auto idx = row_ctx->schema->ColumnIndex(expr.field);
    if (idx.ok()) return (*row_ctx->row)[*idx];
    // Fall through so predicates can omit the prefix when the name is
    // unambiguous with the scanned table.
  }
  if (expr.field == "group" && ctx.group != nullptr) return *ctx.group;
  if (ctx.update != nullptr) {
    auto it = ctx.update->find(expr.field);
    if (it != ctx.update->end()) return it->second;
  }
  return Status::InvalidArgument("unresolved identifier '" + expr.field + "'");
}

Result<Value> EvaluateComparison(BinaryOp op, const Value& a, const Value& b) {
  int cmp;
  if (a.is_string() && b.is_string()) {
    const std::string sa = a.AsString().value();
    const std::string sb = b.AsString().value();
    cmp = sa < sb ? -1 : (sa == sb ? 0 : 1);
  } else if (a.is_bool() && b.is_bool()) {
    if (op != BinaryOp::kEq && op != BinaryOp::kNe) {
      return Status::InvalidArgument("bools only support = and !=");
    }
    cmp = a == b ? 0 : 1;
  } else {
    PREVER_ASSIGN_OR_RETURN(int64_t na, a.AsNumeric());
    PREVER_ASSIGN_OR_RETURN(int64_t nb, b.AsNumeric());
    cmp = na < nb ? -1 : (na == nb ? 0 : 1);
  }
  switch (op) {
    case BinaryOp::kEq:
      return Value::Bool(PREVER_MUTATION(EVAL_CMP_EQ_WIDENED,  //
                                         cmp == 0, cmp >= 0));
    case BinaryOp::kNe:
      return Value::Bool(PREVER_MUTATION(EVAL_CMP_NE_NARROWED,  //
                                         cmp != 0, cmp > 0));
    case BinaryOp::kLt:
      return Value::Bool(PREVER_MUTATION(EVAL_CMP_LT_INCLUSIVE,  //
                                         cmp < 0, cmp <= 0));
    case BinaryOp::kLe:
      return Value::Bool(PREVER_MUTATION(EVAL_CMP_LE_EXCLUSIVE,  //
                                         cmp <= 0, cmp < 0));
    case BinaryOp::kGt:
      return Value::Bool(PREVER_MUTATION(EVAL_CMP_GT_INCLUSIVE,  //
                                         cmp > 0, cmp >= 0));
    case BinaryOp::kGe:
      return Value::Bool(PREVER_MUTATION(EVAL_CMP_GE_EXCLUSIVE,  //
                                         cmp >= 0, cmp > 0));
    default:
      return Status::Internal("not a comparison op");
  }
}

// Arithmetic wraps (two's complement via unsigned casts): int64 overflow is
// defined behavior, identical between this interpreter and the compiled
// bytecode path, so the differential fuzz can probe overflow edges and both
// stay clean under UBSan.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

Result<Value> EvaluateArithmetic(BinaryOp op, const Value& a, const Value& b) {
  PREVER_ASSIGN_OR_RETURN(int64_t na, a.AsNumeric());
  PREVER_ASSIGN_OR_RETURN(int64_t nb, b.AsNumeric());
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  switch (op) {
    case BinaryOp::kAdd:
      return Value::Int64(WrapAdd(na, nb));
    case BinaryOp::kSub:
      return Value::Int64(static_cast<int64_t>(static_cast<uint64_t>(na) -
                                               static_cast<uint64_t>(nb)));
    case BinaryOp::kMul:
      return Value::Int64(static_cast<int64_t>(static_cast<uint64_t>(na) *
                                               static_cast<uint64_t>(nb)));
    case BinaryOp::kDiv:
      if (nb == 0) return Status::InvalidArgument("division by zero");
      if (na == kMin && nb == -1) return Value::Int64(kMin);  // UB otherwise.
      return Value::Int64(na / nb);
    case BinaryOp::kMod:
      if (nb == 0) return Status::InvalidArgument("modulo by zero");
      if (na == kMin && nb == -1) return Value::Int64(0);
      return Value::Int64(na % nb);
    default:
      return Status::Internal("not an arithmetic op");
  }
}

Result<Value> EvaluateAggregateImpl(const Expr& expr, const EvalContext& ctx,
                                    const RowContext* enclosing) {
  if (ctx.db == nullptr) {
    return Status::InvalidArgument("no database bound for aggregate");
  }
  PREVER_ASSIGN_OR_RETURN(const storage::Table* table,
                          ctx.db->GetTable(expr.table));
  const storage::Schema& schema = table->schema();

  size_t column_idx = 0;
  if (!expr.column.empty()) {
    PREVER_ASSIGN_OR_RETURN(column_idx, schema.ColumnIndex(expr.column));
  }

  // Resolve the table's timestamp column for WINDOW filtering.
  size_t ts_idx = schema.num_columns();
  if (expr.window != 0) {
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      if (schema.columns()[i].type == storage::ValueType::kTimestamp) {
        ts_idx = i;
        break;
      }
    }
    if (ts_idx == schema.num_columns()) {
      return Status::InvalidArgument("table '" + expr.table +
                                     "' has no timestamp column for WINDOW");
    }
  }
  SimTime window_start =
      expr.window >= ctx.now
          ? 0
          : PREVER_MUTATION(EVAL_WINDOW_START_OFFBYONE, ctx.now - expr.window,
                            ctx.now - expr.window + 1);

  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();
  Status scan_error;

  table->Scan([&](const Row& row) {
    if (expr.window != 0) {
      auto ts = row[ts_idx].AsTimestamp();
      if (!ts.ok()) {
        scan_error = ts.status();
        return false;
      }
      // Window is the half-open interval (now - window, now].
      if (PREVER_MUTATION(EVAL_WINDOW_START_INCLUSIVE, *ts <= window_start,
                          *ts < window_start) ||
          PREVER_MUTATION(EVAL_WINDOW_END_EXCLUSIVE, *ts > ctx.now,
                          *ts >= ctx.now)) {
        return true;
      }
    }
    if (expr.where) {
      RowContext row_ctx{&ctx, &schema, &row, enclosing};
      auto pred = EvaluateImpl(*expr.where, ctx, &row_ctx);
      if (!pred.ok()) {
        scan_error = pred.status();
        return false;
      }
      auto keep = pred->AsBool();
      if (!keep.ok()) {
        scan_error = keep.status();
        return false;
      }
      if (PREVER_MUTATION(EVAL_WHERE_INVERTED, !*keep, *keep)) return true;
    }
    ++count;
    if (expr.kind == ExprKind::kExists) return false;  // One match suffices.
    if (expr.agg_kind != AggregateKind::kCount) {
      auto v = row[column_idx].AsNumeric();
      if (!v.ok()) {
        scan_error = v.status();
        return false;
      }
      sum = WrapAdd(sum, *v);
      if (PREVER_MUTATION(EVAL_MIN_UPDATE_SKIP, *v < min, false)) min = *v;
      if (PREVER_MUTATION(EVAL_MAX_UPDATE_SKIP, *v > max, false)) max = *v;
    }
    return true;
  });
  if (!scan_error.ok()) return scan_error;

  if (expr.kind == ExprKind::kExists) {
    return Value::Bool(PREVER_MUTATION(EVAL_EXISTS_ALWAYS,  //
                                       count > 0, count >= 0));
  }

  switch (expr.agg_kind) {
    case AggregateKind::kCount:
      return Value::Int64(PREVER_MUTATION(EVAL_COUNT_OFFBYONE,  //
                                          count, count + 1));
    case AggregateKind::kSum:
      return Value::Int64(PREVER_MUTATION(EVAL_SUM_OFFBYONE, sum, sum + 1));
    case AggregateKind::kAvg:
      return Value::Int64(
          PREVER_MUTATION(EVAL_AVG_EMPTY_GUARD, count == 0, count <= 1)
              ? 0
              : sum / count);
    case AggregateKind::kMin:
      if (count == 0) {
        return Status::InvalidArgument("MIN over empty set");
      }
      return Value::Int64(min);
    case AggregateKind::kMax:
      if (count == 0) {
        return Status::InvalidArgument("MAX over empty set");
      }
      return Value::Int64(max);
  }
  return Status::Internal("unreachable");
}

Result<Value> EvaluateImpl(const Expr& expr, const EvalContext& ctx,
                           const RowContext* row_ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kField:
      return LookupField(expr, ctx, row_ctx);
    case ExprKind::kUnary: {
      PREVER_ASSIGN_OR_RETURN(Value v, EvaluateImpl(*expr.operand, ctx, row_ctx));
      if (expr.unary_op == UnaryOp::kNot) {
        PREVER_ASSIGN_OR_RETURN(bool b, v.AsBool());
        return Value::Bool(PREVER_MUTATION(EVAL_NOT_DROPPED, !b, b));
      }
      PREVER_ASSIGN_OR_RETURN(int64_t n, v.AsNumeric());
      // Wrapping negation: -INT64_MIN is UB in plain C++.
      return Value::Int64(
          static_cast<int64_t>(uint64_t{0} - static_cast<uint64_t>(n)));
    }
    case ExprKind::kBinary: {
      // Short-circuit logical operators.
      if (expr.binary_op == BinaryOp::kAnd || expr.binary_op == BinaryOp::kOr) {
        PREVER_ASSIGN_OR_RETURN(Value lv, EvaluateImpl(*expr.lhs, ctx, row_ctx));
        PREVER_ASSIGN_OR_RETURN(bool lb, lv.AsBool());
        if (PREVER_MUTATION(EVAL_AND_SHORTCIRCUIT_SKIP,
                            expr.binary_op == BinaryOp::kAnd && !lb, false)) {
          return Value::Bool(false);
        }
        if (PREVER_MUTATION(EVAL_OR_SHORTCIRCUIT_SKIP,
                            expr.binary_op == BinaryOp::kOr && lb, false)) {
          return Value::Bool(true);
        }
        PREVER_ASSIGN_OR_RETURN(Value rv, EvaluateImpl(*expr.rhs, ctx, row_ctx));
        PREVER_ASSIGN_OR_RETURN(bool rb, rv.AsBool());
        return Value::Bool(rb);
      }
      PREVER_ASSIGN_OR_RETURN(Value lv, EvaluateImpl(*expr.lhs, ctx, row_ctx));
      PREVER_ASSIGN_OR_RETURN(Value rv, EvaluateImpl(*expr.rhs, ctx, row_ctx));
      switch (expr.binary_op) {
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return EvaluateComparison(expr.binary_op, lv, rv);
        default:
          return EvaluateArithmetic(expr.binary_op, lv, rv);
      }
    }
    case ExprKind::kAggregate:
    case ExprKind::kExists:
      // A nested aggregate's predicate can reach the enclosing scan's row
      // via `outer.` — pass the current row context down as the parent.
      return EvaluateAggregateImpl(expr, ctx, row_ctx);
    case ExprKind::kForAll: {
      if (ctx.db == nullptr) {
        return Status::InvalidArgument("no database bound for FORALL");
      }
      PREVER_ASSIGN_OR_RETURN(const storage::Table* table,
                              ctx.db->GetTable(expr.table));
      PREVER_ASSIGN_OR_RETURN(size_t column_idx,
                              table->schema().ColumnIndex(expr.column));
      // Distinct group values in deterministic (key) order.
      std::set<Value> groups;
      table->Scan([&](const Row& row) {
        groups.insert(row[column_idx]);
        return true;
      });
      for (const Value& group : groups) {
        EvalContext group_ctx = ctx;
        group_ctx.group = &group;
        PREVER_ASSIGN_OR_RETURN(Value verdict,
                                EvaluateImpl(*expr.operand, group_ctx, row_ctx));
        PREVER_ASSIGN_OR_RETURN(bool holds, verdict.AsBool());
        if (PREVER_MUTATION(EVAL_FORALL_IGNORE_VIOLATION, !holds, false)) {
          return Value::Bool(false);
        }
      }
      return Value::Bool(true);  // Vacuously true over an empty table.
    }
  }
  return Status::Internal("unreachable");
}

}  // namespace

Result<storage::Value> Evaluate(const Expr& expr, const EvalContext& ctx) {
  return EvaluateImpl(expr, ctx, nullptr);
}

Result<bool> EvaluateBool(const Expr& expr, const EvalContext& ctx) {
  PREVER_ASSIGN_OR_RETURN(storage::Value v, Evaluate(expr, ctx));
  return v.AsBool();
}

}  // namespace prever::constraint
