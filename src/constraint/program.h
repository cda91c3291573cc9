#ifndef PREVER_CONSTRAINT_PROGRAM_H_
#define PREVER_CONSTRAINT_PROGRAM_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "constraint/ast.h"
#include "constraint/context.h"

namespace prever::constraint {

/// Flat register-based bytecode for one constraint expression: the only
/// evaluator engines run. The AST's recursive tree walk becomes a linear
/// instruction stream over a small register file; short-circuit AND/OR
/// lower to forward jumps; aggregates become references into a side table
/// of AggregateSpec entries evaluated through the AggregateCache (or a
/// scalar row scan when the shape is not cacheable).
///
/// The compiler is partial: FORALL, `outer.`-correlated predicates, a bare
/// `group`, and aggregates nested inside aggregate predicates are
/// NotSupported, so ConstraintCatalog refuses them at Add. The tree-walking
/// interpreter (eval.h) remains as the differential oracle.
enum class OpCode : uint8_t {
  kLoadConst,   ///< dst = consts[a]
  kLoadUpdate,  ///< dst = update[names[a]]; b != 0 → bare-name lookup
  kLoadRow,     ///< dst = row[a] (row mode, post-Bind; a = column index)
  kLoadName,    ///< unresolved bare name (row mode, pre-Bind; a = names idx)
  kNot,         ///< dst = !a (bool)
  kNeg,         ///< dst = -a (numeric, wrapping)
  kCoerceBool,  ///< dst = a, which must be bool
  kJumpIfFalse, ///< if !reg[a] → pc = imm (reg[a] must be bool)
  kJumpIfTrue,  ///< if reg[a] → pc = imm
  kCmpEq, kCmpNe, kCmpLt, kCmpLe, kCmpGt, kCmpGe,  ///< dst = a <op> b
  kAdd, kSub, kMul,  ///< dst = a <op> b (wrapping int64)
  kDiv, kMod,        ///< dst = a <op> b; error on zero divisor
  kAggregate,   ///< dst = value of aggregate spec a (top-level mode)
  kReturn,      ///< result = reg[a]
};

struct Insn {
  OpCode op;
  uint16_t dst = 0;
  uint16_t a = 0;
  uint16_t b = 0;
  int32_t imm = 0;
};

/// Tagged scalar register. Timestamps ride in the numeric tag — exactly the
/// coercion Value::AsNumeric applies — and strings are borrowed pointers
/// into stable storage (constant pool, update fields, or the scanned row).
struct RegVal {
  enum class Tag : uint8_t { kNum, kBool, kStr };
  Tag tag = Tag::kNum;
  int64_t num = 0;
  bool b = false;
  const std::string* str = nullptr;

  static RegVal Num(int64_t v) { return RegVal{Tag::kNum, v, false, nullptr}; }
  static RegVal Bool(bool v) { return RegVal{Tag::kBool, 0, v, nullptr}; }
  static RegVal Str(const std::string* s) {
    return RegVal{Tag::kStr, 0, false, s};
  }
  static Result<RegVal> FromValue(const storage::Value& v);
};

struct Program {
  std::vector<Insn> insns;
  std::vector<storage::Value> consts;
  std::vector<std::string> names;
  uint16_t num_regs = 0;

  /// Resolves bare names against `schema`: names that are columns become
  /// kLoadRow, the rest fall back to update-field lookups — the same
  /// resolution order the interpreter applies per row, hoisted out of the
  /// scan because schemas are static configuration.
  Program Bind(const storage::Schema& schema) const;
};

/// One aggregate (or EXISTS) subexpression of a compiled constraint.
struct AggregateSpec {
  bool exists = false;
  AggregateKind agg = AggregateKind::kCount;
  std::string table;
  std::string column;  ///< Empty for COUNT(table) / EXISTS(table).
  SimTime window = 0;
  /// Full WHERE predicate in row mode (scalar, short-circuit); null if none.
  std::unique_ptr<Program> where;

  // --- incremental-cache classification (structural part; the schema-
  // dependent half happens at bind time inside the AggregateCache) ---
  /// Candidate group selector `group_column = update.<group_update_field>`
  /// pulled out of the WHERE conjunction. Empty column → no selector.
  std::string group_column;
  std::string group_update_field;
  /// Conjunction of the remaining row-only conjuncts (row mode), or null.
  std::unique_ptr<Program> row_pred;
  /// False when the WHERE shape rules out incremental maintenance (update
  /// references outside the single equality selector, etc.).
  bool cache_candidate = false;
};

/// A constraint lowered to bytecode. It owns everything it needs: no
/// pointer back into the AST it was compiled from.
struct CompiledConstraint {
  Program top;
  std::vector<std::unique_ptr<AggregateSpec>> aggs;
};

/// Compiles `expr`, or NotSupported naming the first shape it rejects.
Result<CompiledConstraint> CompileConstraint(const Expr& expr);

/// Row view for scalar row-mode execution.
struct RowView {
  const storage::Schema* schema = nullptr;
  const storage::Row* row = nullptr;
};

/// Lazy aggregate resolver: called when execution reaches a kAggregate op
/// (and only then — short-circuit jumps skip aggregates exactly like the
/// interpreter would, including their errors).
using AggFn = std::function<Result<storage::Value>(size_t spec_index)>;

/// Executes a program to its final register. Top-level programs pass
/// row == nullptr and an AggFn; row-mode programs pass the row.
Result<RegVal> RunScalar(const Program& program, const EvalContext& ctx,
                         const RowView* row, const AggFn* agg_fn);

/// Running aggregate accumulator shared by the scalar scan and the
/// incremental cache — one definition of SUM/COUNT/MIN/MAX
/// (wrapping sum, so cache eviction subtraction is an exact inverse).
struct FoldState {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;

  void Add(int64_t v);
  /// Folds the terminal aggregate value out of the accumulated state,
  /// applying the interpreter's empty-set rules (AVG → 0, MIN/MAX → error).
  Result<storage::Value> Finish(const AggregateSpec& spec) const;
};

/// Window start for (now - window, now]: the interpreter's exact rule.
SimTime WindowStart(SimTime window, SimTime now);
/// True when ts lies inside the half-open window (start, now].
bool InWindow(SimTime ts, SimTime start, SimTime now);

/// An AggregateSpec resolved against its table's schema: column indices
/// fixed, bare names in the WHERE programs rewritten to row loads or
/// update lookups. Schemas are static configuration, so this happens once
/// per spec instead of once per scanned row.
struct BoundSpec {
  const AggregateSpec* spec = nullptr;
  Program where_scalar;  ///< Bound copy; empty when the spec has no WHERE.
  size_t column_idx = 0;
  storage::ValueType column_type = storage::ValueType::kInt64;
  size_t ts_idx = 0;  ///< Valid when spec->window != 0.
  /// True when the bound row_pred reads update fields (bare names that did
  /// not resolve to columns) — which rules out insert-time evaluation.
  bool row_pred_reads_update = false;
  Program row_pred;  ///< Bound copy; empty when the spec has none.
};

Result<BoundSpec> BindSpec(const AggregateSpec& spec,
                           const storage::Schema& schema);

/// Evaluates one aggregate spec by scanning the table — the path for
/// shapes outside the cacheable class. A scalar row loop with
/// interpreter-identical semantics (scan order, window filter before WHERE,
/// early EXISTS stop, first-error reporting).
Result<storage::Value> EvaluateSpecByScan(const BoundSpec& bound,
                                          const EvalContext& ctx);

}  // namespace prever::constraint

#endif  // PREVER_CONSTRAINT_PROGRAM_H_
