#include "constraint/ast.h"

namespace prever::constraint {

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAnd:
      return "AND";
    case BinaryOp::kOr:
      return "OR";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "/";
    case BinaryOp::kMod:
      return "%";
  }
  return "?";
}

const char* AggregateKindName(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kSum:
      return "SUM";
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kMax:
      return "MAX";
    case AggregateKind::kAvg:
      return "AVG";
  }
  return "?";
}

ExprPtr Expr::Literal(storage::Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr Expr::Field(std::string qualifier, std::string name) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kField;
  e->qualifier = std::move(qualifier);
  e->field = std::move(name);
  return e;
}

ExprPtr Expr::Unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->operand = std::move(operand);
  return e;
}

ExprPtr Expr::Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->lhs = std::move(lhs);
  e->rhs = std::move(rhs);
  return e;
}

ExprPtr Expr::Aggregate(AggregateKind kind, std::string table,
                        std::string column, ExprPtr where, SimTime window) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kAggregate;
  e->agg_kind = kind;
  e->table = std::move(table);
  e->column = std::move(column);
  e->where = std::move(where);
  e->window = window;
  return e;
}

ExprPtr Expr::Exists(std::string table, ExprPtr where, SimTime window) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kExists;
  e->table = std::move(table);
  e->where = std::move(where);
  e->window = window;
  return e;
}

ExprPtr Expr::ForAll(std::string table, std::string column, ExprPtr body) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kForAll;
  e->table = std::move(table);
  e->column = std::move(column);
  e->operand = std::move(body);
  return e;
}

ExprPtr Expr::Clone() const {
  auto e = std::make_unique<Expr>();
  e->kind = kind;
  e->literal = literal;
  e->qualifier = qualifier;
  e->field = field;
  e->unary_op = unary_op;
  if (operand) e->operand = operand->Clone();
  e->binary_op = binary_op;
  if (lhs) e->lhs = lhs->Clone();
  if (rhs) e->rhs = rhs->Clone();
  e->agg_kind = agg_kind;
  e->table = table;
  e->column = column;
  if (where) e->where = where->Clone();
  e->window = window;
  return e;
}

bool Expr::operator==(const Expr& o) const {
  auto same = [](const ExprPtr& a, const ExprPtr& b) {
    return a == nullptr ? b == nullptr : b != nullptr && *a == *b;
  };
  return kind == o.kind && literal == o.literal && qualifier == o.qualifier &&
         field == o.field && unary_op == o.unary_op &&
         same(operand, o.operand) && binary_op == o.binary_op &&
         same(lhs, o.lhs) && same(rhs, o.rhs) && agg_kind == o.agg_kind &&
         table == o.table && column == o.column && same(where, o.where) &&
         window == o.window;
}

namespace {
std::string WindowToString(SimTime window) {
  // Render in the largest unit that divides evenly.
  struct Unit {
    SimTime micros;
    char suffix;
  };
  constexpr Unit kUnits[] = {
      {kWeek, 'w'}, {kDay, 'd'}, {kHour, 'h'}, {kMinute, 'm'}, {kSecond, 's'}};
  for (const Unit& u : kUnits) {
    if (window % u.micros == 0) {
      return std::to_string(window / u.micros) + u.suffix;
    }
  }
  return std::to_string(window / kSecond) + "s";
}
}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kField:
      return qualifier.empty() ? field : qualifier + "." + field;
    case ExprKind::kUnary:
      if (unary_op == UnaryOp::kNot) return "NOT (" + operand->ToString() + ")";
      return "-(" + operand->ToString() + ")";
    case ExprKind::kBinary:
      return "(" + lhs->ToString() + " " + BinaryOpName(binary_op) + " " +
             rhs->ToString() + ")";
    case ExprKind::kAggregate:
    case ExprKind::kExists: {
      std::string s =
          kind == ExprKind::kExists ? "EXISTS" : AggregateKindName(agg_kind);
      s += "(";
      s += table;
      if (!column.empty()) s += "." + column;
      if (where) s += " WHERE " + where->ToString();
      if (window != 0) s += " WINDOW " + WindowToString(window);
      s += ")";
      return s;
    }
    case ExprKind::kForAll:
      return "FORALL(" + table + "." + column + " : " + operand->ToString() +
             ")";
  }
  return "?";
}

}  // namespace prever::constraint
