#ifndef PREVER_CONSTRAINT_AST_H_
#define PREVER_CONSTRAINT_AST_H_

#include <memory>
#include <string>

#include "common/sim_clock.h"
#include "storage/value.h"

namespace prever::constraint {

/// Expression kinds in the PReVer constraint language. A constraint is a
/// Boolean expression over (a) the fields of the incoming update and (b)
/// aggregates over the current database state — exactly the model of §3.2:
/// "a Boolean function computed over the database and an incoming update".
enum class ExprKind : uint8_t {
  kLiteral,
  kField,
  kUnary,
  kBinary,
  kAggregate,
  kExists,  ///< EXISTS(table [WHERE pred] [WINDOW dur]) — boolean.
  kForAll,  ///< FORALL(table.column : body) — body must hold for every
            ///< distinct value of the column; the value is visible in the
            ///< body as the reserved identifier `group` (GROUP BY-style
            ///< quantification, §5's expressiveness future work).
};

enum class UnaryOp : uint8_t { kNot, kNegate };

enum class BinaryOp : uint8_t {
  kAnd,
  kOr,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
};

enum class AggregateKind : uint8_t { kCount, kSum, kMin, kMax, kAvg };

const char* BinaryOpName(BinaryOp op);
const char* AggregateKindName(AggregateKind kind);

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// Single AST node (tagged union kept as one struct for cache friendliness
/// and easy recursive visitation).
struct Expr {
  ExprKind kind;

  // kLiteral.
  storage::Value literal;

  // kField: `qualifier.name`; qualifier "update" refers to update fields,
  // empty qualifier refers to the row being scanned inside an aggregate
  // predicate (and to update fields at top level).
  std::string qualifier;
  std::string field;

  // kUnary.
  UnaryOp unary_op = UnaryOp::kNot;
  ExprPtr operand;

  // kBinary.
  BinaryOp binary_op = BinaryOp::kAnd;
  ExprPtr lhs;
  ExprPtr rhs;

  // kAggregate / kExists: AGG(table.column [WHERE pred] [WINDOW dur]);
  // column empty for COUNT(table) and EXISTS(table). The window applies to
  // the table's timestamp column. Inside a nested predicate, `outer.<col>`
  // refers to the enclosing scan's row — enabling correlated, join-style
  // constraints (the SQL expressiveness §5 lists as future work).
  AggregateKind agg_kind = AggregateKind::kCount;
  std::string table;
  std::string column;
  ExprPtr where;           ///< May be null.
  SimTime window = 0;      ///< 0 means no window.

  static ExprPtr Literal(storage::Value v);
  static ExprPtr Field(std::string qualifier, std::string name);
  static ExprPtr Unary(UnaryOp op, ExprPtr operand);
  static ExprPtr Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr Aggregate(AggregateKind kind, std::string table,
                           std::string column, ExprPtr where, SimTime window);
  static ExprPtr Exists(std::string table, ExprPtr where, SimTime window);
  /// body is stored in `operand`.
  static ExprPtr ForAll(std::string table, std::string column, ExprPtr body);

  /// Deep copy.
  ExprPtr Clone() const;

  /// Deep structural equality (a clone equals its source).
  bool operator==(const Expr& o) const;

  /// Canonical textual form (parseable back by the parser).
  std::string ToString() const;
};

}  // namespace prever::constraint

#endif  // PREVER_CONSTRAINT_AST_H_
