#include "constraint/program.h"

#include <limits>

#include "mutate/mutation.h"

namespace prever::constraint {

namespace {

using storage::Row;
using storage::Value;
using storage::ValueType;

// Wrapping int64 arithmetic: both the interpreter and the compiled path use
// two's-complement semantics so the differential fuzz can probe overflow
// edges without tripping UBSan, and so the aggregate cache's eviction
// subtraction is an exact inverse of its insertion addition.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
int64_t WrapNeg(int64_t a) {
  return static_cast<int64_t>(uint64_t{0} - static_cast<uint64_t>(a));
}
constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();

int64_t WrapDiv(int64_t a, int64_t b) {
  if (a == kI64Min && b == -1) return kI64Min;  // UB in plain C++ division.
  return a / b;
}
int64_t WrapMod(int64_t a, int64_t b) {
  if (a == kI64Min && b == -1) return 0;
  return a % b;
}

/// The comparison verdict for a three-way cmp.
bool CmpVerdict(OpCode op, int cmp) {
  switch (op) {
    case OpCode::kCmpEq:
      return cmp == 0;
    case OpCode::kCmpNe:
      return cmp != 0;
    case OpCode::kCmpLt:
      return cmp < 0;
    case OpCode::kCmpLe:
      return PREVER_MUTATION(PROG_CMP_LE_EXCLUSIVE, cmp <= 0, cmp < 0);
    case OpCode::kCmpGt:
      return cmp > 0;
    case OpCode::kCmpGe:
      return cmp >= 0;
    default:
      return false;
  }
}

/// Three-way comparison with the interpreter's coercion rules: strings with
/// strings, bools only under =/!= , everything else through AsNumeric.
Result<int> CompareRegs(OpCode op, const RegVal& a, const RegVal& b) {
  if (a.tag == RegVal::Tag::kStr && b.tag == RegVal::Tag::kStr) {
    const std::string& sa = *a.str;
    const std::string& sb = *b.str;
    return sa < sb ? -1 : (sa == sb ? 0 : 1);
  }
  if (a.tag == RegVal::Tag::kBool && b.tag == RegVal::Tag::kBool) {
    if (op != OpCode::kCmpEq && op != OpCode::kCmpNe) {
      return Status::InvalidArgument("bools only support = and !=");
    }
    return a.b == b.b ? 0 : 1;
  }
  if (a.tag != RegVal::Tag::kNum || b.tag != RegVal::Tag::kNum) {
    return Status::InvalidArgument("operand is not numeric");
  }
  return a.num < b.num ? -1 : (a.num == b.num ? 0 : 1);
}

// ------------------------------------------------------------- Compiler

class Compiler {
 public:
  Compiler(bool row_mode, std::vector<std::unique_ptr<AggregateSpec>>* aggs)
      : row_mode_(row_mode), aggs_(aggs) {}

  /// Compiles `e` and appends the final kReturn.
  Result<Program> Compile(const Expr& e) {
    PREVER_ASSIGN_OR_RETURN(uint16_t result, CompileExpr(e));
    Emit({OpCode::kReturn, 0, result, 0, 0});
    prog_.num_regs = next_reg_;
    return std::move(prog_);
  }

 private:
  Result<uint16_t> CompileExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral: {
        PREVER_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
        uint16_t idx = static_cast<uint16_t>(prog_.consts.size());
        prog_.consts.push_back(e.literal);
        Emit({OpCode::kLoadConst, dst, idx, 0, 0});
        return dst;
      }
      case ExprKind::kField:
        return CompileField(e);
      case ExprKind::kUnary: {
        PREVER_ASSIGN_OR_RETURN(uint16_t src, CompileExpr(*e.operand));
        PREVER_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
        Emit({e.unary_op == UnaryOp::kNot ? OpCode::kNot : OpCode::kNeg, dst,
              src, 0, 0});
        return dst;
      }
      case ExprKind::kBinary:
        return CompileBinary(e);
      case ExprKind::kAggregate:
      case ExprKind::kExists:
        return CompileAggregate(e);
      case ExprKind::kForAll:
        return Status::NotSupported("FORALL does not compile");
    }
    return Status::Internal("unknown expression kind");
  }

  Result<uint16_t> NewReg() {
    if (next_reg_ == std::numeric_limits<uint16_t>::max()) {
      return Status::NotSupported("expression needs more than 65535 registers");
    }
    return next_reg_++;
  }

  void Emit(Insn insn) { prog_.insns.push_back(insn); }

  uint16_t NameIndex(const std::string& name) {
    for (size_t i = 0; i < prog_.names.size(); ++i) {
      if (prog_.names[i] == name) return static_cast<uint16_t>(i);
    }
    prog_.names.push_back(name);
    return static_cast<uint16_t>(prog_.names.size() - 1);
  }

  Result<uint16_t> CompileField(const Expr& e) {
    if (!e.qualifier.empty() && e.qualifier != "update") {
      return Status::NotSupported("'" + e.qualifier + "." + e.field +
                                  "' does not compile");
    }
    if (!row_mode_ && e.qualifier.empty() && e.field == "group") {
      // `group` is bound only inside FORALL bodies.
      return Status::NotSupported("bare 'group' does not compile");
    }
    PREVER_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
    if (e.qualifier == "update") {
      Emit({OpCode::kLoadUpdate, dst, NameIndex(e.field), 0, 0});
    } else if (row_mode_) {
      // Bare name: row column vs update field is schema-dependent —
      // resolved once at Bind time instead of per scanned row.
      Emit({OpCode::kLoadName, dst, NameIndex(e.field), 0, 0});
    } else {
      Emit({OpCode::kLoadUpdate, dst, NameIndex(e.field), 1, 0});
    }
    return dst;
  }

  Result<uint16_t> CompileBinary(const Expr& e) {
    if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
      // Short-circuit lowering: the lhs register doubles as the result.
      PREVER_ASSIGN_OR_RETURN(uint16_t ra, CompileExpr(*e.lhs));
      size_t jump_at = prog_.insns.size();
      Emit({e.binary_op == BinaryOp::kAnd ? OpCode::kJumpIfFalse
                                          : OpCode::kJumpIfTrue,
            0, ra, 0, 0});
      PREVER_ASSIGN_OR_RETURN(uint16_t rb, CompileExpr(*e.rhs));
      Emit({OpCode::kCoerceBool, ra, rb, 0, 0});
      prog_.insns[jump_at].imm = static_cast<int32_t>(prog_.insns.size());
      return ra;
    }
    PREVER_ASSIGN_OR_RETURN(uint16_t ra, CompileExpr(*e.lhs));
    PREVER_ASSIGN_OR_RETURN(uint16_t rb, CompileExpr(*e.rhs));
    PREVER_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
    OpCode op;
    switch (e.binary_op) {
      case BinaryOp::kEq: op = OpCode::kCmpEq; break;
      case BinaryOp::kNe: op = OpCode::kCmpNe; break;
      case BinaryOp::kLt: op = OpCode::kCmpLt; break;
      case BinaryOp::kLe: op = OpCode::kCmpLe; break;
      case BinaryOp::kGt: op = OpCode::kCmpGt; break;
      case BinaryOp::kGe: op = OpCode::kCmpGe; break;
      case BinaryOp::kAdd: op = OpCode::kAdd; break;
      case BinaryOp::kSub: op = OpCode::kSub; break;
      case BinaryOp::kMul: op = OpCode::kMul; break;
      case BinaryOp::kDiv: op = OpCode::kDiv; break;
      case BinaryOp::kMod: op = OpCode::kMod; break;
      default:
        return Status::Internal("unknown binary operator");
    }
    Emit({op, dst, ra, rb, 0});
    return dst;
  }

  Result<uint16_t> CompileAggregate(const Expr& e);

  bool row_mode_;
  std::vector<std::unique_ptr<AggregateSpec>>* aggs_;
  Program prog_;
  uint16_t next_reg_ = 0;
};

/// Compiles a row-mode predicate program.
Result<std::unique_ptr<Program>> CompileRowProgram(const Expr& expr) {
  Compiler compiler(/*row_mode=*/true, /*aggs=*/nullptr);
  PREVER_ASSIGN_OR_RETURN(Program prog, compiler.Compile(expr));
  return std::make_unique<Program>(std::move(prog));
}

/// True when every field reference in `e` is a bare name or a literal —
/// i.e. the conjunct never names `update.` explicitly. (A bare name can
/// still resolve to an update field; Bind() detects that case.)
bool IsUpdateFree(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kLiteral:
      return true;
    case ExprKind::kField:
      return e.qualifier.empty();
    case ExprKind::kUnary:
      return IsUpdateFree(*e.operand);
    case ExprKind::kBinary:
      return IsUpdateFree(*e.lhs) && IsUpdateFree(*e.rhs);
    default:
      return false;  // Aggregates/EXISTS/FORALL: not a cache-friendly shape.
  }
}

void FlattenConjunction(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kAnd) {
    FlattenConjunction(*e.lhs, out);
    FlattenConjunction(*e.rhs, out);
    return;
  }
  out->push_back(&e);
}

/// Detects `col = update.f` / `update.f = col` group selectors.
bool IsSelectorForm(const Expr& e, std::string* column, std::string* field) {
  if (e.kind != ExprKind::kBinary || e.binary_op != BinaryOp::kEq) return false;
  const Expr* l = e.lhs.get();
  const Expr* r = e.rhs.get();
  if (l->kind != ExprKind::kField || r->kind != ExprKind::kField) return false;
  if (l->qualifier.empty() && r->qualifier == "update") {
    *column = l->field;
    *field = r->field;
    return true;
  }
  if (r->qualifier.empty() && l->qualifier == "update") {
    *column = r->field;
    *field = l->field;
    return true;
  }
  return false;
}

/// Structural half of the cacheability analysis: pull out at most one
/// group selector; everything else must be update-free row predicates.
void ClassifyWhere(const Expr& where, AggregateSpec* spec) {
  std::vector<const Expr*> conjuncts;
  FlattenConjunction(where, &conjuncts);
  std::vector<const Expr*> row_only;
  bool have_selector = false;
  for (const Expr* c : conjuncts) {
    std::string column, field;
    if (!have_selector && IsSelectorForm(*c, &column, &field)) {
      have_selector = true;
      spec->group_column = column;
      spec->group_update_field = field;
      continue;
    }
    if (!IsUpdateFree(*c)) return;  // Not cacheable; spec stays scan-only.
    row_only.push_back(c);
  }
  if (!row_only.empty()) {
    // Rebuild the residual conjunction (clone + fold) and compile it.
    ExprPtr residual = row_only[0]->Clone();
    for (size_t i = 1; i < row_only.size(); ++i) {
      residual = Expr::Binary(BinaryOp::kAnd, std::move(residual),
                              row_only[i]->Clone());
    }
    // A sub-conjunction of a WHERE that compiled always compiles too.
    auto row_pred = CompileRowProgram(*residual);
    if (!row_pred.ok()) return;
    spec->row_pred = std::move(*row_pred);
  }
  spec->cache_candidate = true;
}

Result<uint16_t> Compiler::CompileAggregate(const Expr& e) {
  if (row_mode_ || aggs_ == nullptr) {
    return Status::NotSupported(
        "an aggregate inside an aggregate's WHERE does not compile");
  }
  auto spec = std::make_unique<AggregateSpec>();
  spec->exists = e.kind == ExprKind::kExists;
  spec->agg = e.agg_kind;
  spec->table = e.table;
  spec->column = e.column;
  spec->window = e.window;
  if (e.where) {
    PREVER_ASSIGN_OR_RETURN(spec->where, CompileRowProgram(*e.where));
    ClassifyWhere(*e.where, spec.get());
  } else {
    spec->cache_candidate = true;  // Unfiltered aggregate: one global group.
  }
  PREVER_ASSIGN_OR_RETURN(uint16_t dst, NewReg());
  Emit({OpCode::kAggregate, dst, static_cast<uint16_t>(aggs_->size()), 0, 0});
  aggs_->push_back(std::move(spec));
  return dst;
}

}  // namespace

// ----------------------------------------------------------------- RegVal

Result<RegVal> RegVal::FromValue(const Value& v) {
  if (const std::string* s = v.StringRef()) return RegVal::Str(s);
  if (v.is_bool()) return RegVal::Bool(*v.AsBool());
  PREVER_ASSIGN_OR_RETURN(int64_t n, v.AsNumeric());
  return RegVal::Num(n);
}

// ---------------------------------------------------------------- Program

Program Program::Bind(const storage::Schema& schema) const {
  Program out = *this;
  for (Insn& insn : out.insns) {
    if (insn.op != OpCode::kLoadName) continue;
    auto idx = schema.ColumnIndex(out.names[insn.a]);
    if (idx.ok()) {
      insn.op = OpCode::kLoadRow;
      insn.a = static_cast<uint16_t>(*idx);
    } else {
      insn.op = OpCode::kLoadUpdate;
      insn.b = 1;  // Bare-name lookup: fall through to update fields.
    }
  }
  return out;
}

Result<CompiledConstraint> CompileConstraint(const Expr& expr) {
  CompiledConstraint out;
  Compiler compiler(/*row_mode=*/false, &out.aggs);
  PREVER_ASSIGN_OR_RETURN(out.top, compiler.Compile(expr));
  return out;
}

// ------------------------------------------------------------ Scalar run

Result<RegVal> RunScalar(const Program& program, const EvalContext& ctx,
                         const RowView* row, const AggFn* agg_fn) {
  constexpr size_t kInlineRegs = 16;
  RegVal inline_regs[kInlineRegs];
  std::vector<RegVal> heap_regs;
  RegVal* regs = inline_regs;
  if (program.num_regs > kInlineRegs) {
    heap_regs.resize(program.num_regs);
    regs = heap_regs.data();
  }

  size_t pc = 0;
  const size_t n = program.insns.size();
  while (pc < n) {
    const Insn& insn = program.insns[pc];
    switch (insn.op) {
      case OpCode::kLoadConst: {
        PREVER_ASSIGN_OR_RETURN(regs[insn.dst],
                                RegVal::FromValue(program.consts[insn.a]));
        break;
      }
      case OpCode::kLoadUpdate: {
        const std::string& name = program.names[insn.a];
        if (ctx.update == nullptr) {
          if (insn.b != 0) {
            return Status::InvalidArgument("unresolved identifier '" + name +
                                           "'");
          }
          return Status::InvalidArgument("no update bound for update." + name);
        }
        auto it = ctx.update->find(name);
        if (it == ctx.update->end()) {
          if (insn.b != 0) {
            return Status::InvalidArgument("unresolved identifier '" + name +
                                           "'");
          }
          return Status::InvalidArgument("update has no field '" + name + "'");
        }
        PREVER_ASSIGN_OR_RETURN(regs[insn.dst], RegVal::FromValue(it->second));
        break;
      }
      case OpCode::kLoadRow: {
        if (row == nullptr || row->row == nullptr) {
          return Status::Internal("row load outside a scan");
        }
        PREVER_ASSIGN_OR_RETURN(regs[insn.dst],
                                RegVal::FromValue((*row->row)[insn.a]));
        break;
      }
      case OpCode::kLoadName:
        return Status::Internal("unbound name in compiled program");
      case OpCode::kNot: {
        const RegVal& v = regs[insn.a];
        if (v.tag != RegVal::Tag::kBool) {
          return Status::InvalidArgument("NOT of a non-bool");
        }
        regs[insn.dst] = RegVal::Bool(!v.b);
        break;
      }
      case OpCode::kNeg: {
        const RegVal& v = regs[insn.a];
        if (v.tag != RegVal::Tag::kNum) {
          return Status::InvalidArgument("negation of a non-numeric");
        }
        regs[insn.dst] = RegVal::Num(WrapNeg(v.num));
        break;
      }
      case OpCode::kCoerceBool: {
        const RegVal& v = regs[insn.a];
        if (v.tag != RegVal::Tag::kBool) {
          return Status::InvalidArgument("expected a boolean operand");
        }
        regs[insn.dst] = v;
        break;
      }
      case OpCode::kJumpIfFalse: {
        const RegVal& v = regs[insn.a];
        if (v.tag != RegVal::Tag::kBool) {
          return Status::InvalidArgument("expected a boolean operand");
        }
        if (PREVER_MUTATION(PROG_AND_SHORTCIRCUIT_SKIP, !v.b, false)) {
          pc = static_cast<size_t>(insn.imm);
          continue;
        }
        break;
      }
      case OpCode::kJumpIfTrue: {
        const RegVal& v = regs[insn.a];
        if (v.tag != RegVal::Tag::kBool) {
          return Status::InvalidArgument("expected a boolean operand");
        }
        if (v.b) {
          pc = static_cast<size_t>(insn.imm);
          continue;
        }
        break;
      }
      case OpCode::kCmpEq:
      case OpCode::kCmpNe:
      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
      case OpCode::kCmpGt:
      case OpCode::kCmpGe: {
        PREVER_ASSIGN_OR_RETURN(
            int cmp, CompareRegs(insn.op, regs[insn.a], regs[insn.b]));
        regs[insn.dst] = RegVal::Bool(CmpVerdict(insn.op, cmp));
        break;
      }
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
      case OpCode::kMod: {
        const RegVal& a = regs[insn.a];
        const RegVal& b = regs[insn.b];
        if (a.tag != RegVal::Tag::kNum || b.tag != RegVal::Tag::kNum) {
          return Status::InvalidArgument("operand is not numeric");
        }
        int64_t r;
        switch (insn.op) {
          case OpCode::kAdd: r = WrapAdd(a.num, b.num); break;
          case OpCode::kSub: r = WrapSub(a.num, b.num); break;
          case OpCode::kMul: r = WrapMul(a.num, b.num); break;
          case OpCode::kDiv:
            if (b.num == 0) {
              return Status::InvalidArgument("division by zero");
            }
            r = WrapDiv(a.num, b.num);
            break;
          default:
            if (b.num == 0) {
              return Status::InvalidArgument("modulo by zero");
            }
            r = WrapMod(a.num, b.num);
            break;
        }
        regs[insn.dst] = RegVal::Num(r);
        break;
      }
      case OpCode::kAggregate: {
        if (agg_fn == nullptr) {
          return Status::Internal("aggregate op without a resolver");
        }
        PREVER_ASSIGN_OR_RETURN(Value v, (*agg_fn)(insn.a));
        PREVER_ASSIGN_OR_RETURN(regs[insn.dst], RegVal::FromValue(v));
        break;
      }
      case OpCode::kReturn:
        return regs[insn.a];
    }
    ++pc;
  }
  return Status::Internal("compiled program fell off the end");
}

// --------------------------------------------------------------- Folding

void FoldState::Add(int64_t v) {
  if (count == 0) {
    min = v;
    max = v;
  } else {
    if (PREVER_MUTATION(PROG_MIN_UPDATE_SKIP, v < min, false)) min = v;
    if (v > max) max = v;
  }
  ++count;
  sum = WrapAdd(sum, v);
}

Result<Value> FoldState::Finish(const AggregateSpec& spec) const {
  if (spec.exists) {
    return Value::Bool(PREVER_MUTATION(PROG_EXISTS_ALWAYS,  //
                                       count > 0, count >= 0));
  }
  switch (spec.agg) {
    case AggregateKind::kCount:
      return Value::Int64(count);
    case AggregateKind::kSum:
      return Value::Int64(PREVER_MUTATION(PROG_SUM_OFFBYONE, sum, sum + 1));
    case AggregateKind::kAvg:
      return Value::Int64(count == 0 ? 0 : WrapDiv(sum, count));
    case AggregateKind::kMin:
      if (count == 0) return Status::InvalidArgument("MIN over empty set");
      return Value::Int64(min);
    case AggregateKind::kMax:
      if (count == 0) return Status::InvalidArgument("MAX over empty set");
      return Value::Int64(max);
  }
  return Status::Internal("unreachable");
}

SimTime WindowStart(SimTime window, SimTime now) {
  return window >= now ? 0 : now - window;
}

bool InWindow(SimTime ts, SimTime start, SimTime now) {
  // Window is the half-open interval (start, now].
  if (PREVER_MUTATION(PROG_WINDOW_START_INCLUSIVE, ts <= start, ts < start)) {
    return false;
  }
  return ts <= now;
}

// ----------------------------------------------------------- Spec binding

Result<BoundSpec> BindSpec(const AggregateSpec& spec,
                           const storage::Schema& schema) {
  BoundSpec out;
  out.spec = &spec;
  if (!spec.column.empty()) {
    PREVER_ASSIGN_OR_RETURN(out.column_idx, schema.ColumnIndex(spec.column));
  }
  out.column_type = schema.num_columns() > out.column_idx
                        ? schema.columns()[out.column_idx].type
                        : ValueType::kInt64;
  if (spec.window != 0) {
    size_t ts_idx = schema.num_columns();
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      if (schema.columns()[i].type == ValueType::kTimestamp) {
        ts_idx = i;
        break;
      }
    }
    if (ts_idx == schema.num_columns()) {
      return Status::InvalidArgument("table '" + spec.table +
                                     "' has no timestamp column for WINDOW");
    }
    out.ts_idx = ts_idx;
  }
  if (spec.where) {
    out.where_scalar = spec.where->Bind(schema);
  }
  if (spec.row_pred) {
    out.row_pred = spec.row_pred->Bind(schema);
    for (const Insn& insn : out.row_pred.insns) {
      if (insn.op == OpCode::kLoadUpdate) out.row_pred_reads_update = true;
    }
  }
  return out;
}

// --------------------------------------------------------------- Scanning

namespace {

/// Exact-semantics scalar scan: the same row order, window filter, early
/// EXISTS stop, and first-error reporting as the tree-walking interpreter,
/// minus the per-row tree walk.
Result<Value> ScalarSpecScan(const BoundSpec& bound, const EvalContext& ctx,
                             const storage::Table& table) {
  const AggregateSpec& spec = *bound.spec;
  const storage::Schema& schema = table.schema();
  const SimTime start = WindowStart(spec.window, ctx.now);
  const bool needs_value =
      !spec.exists && spec.agg != AggregateKind::kCount;
  FoldState fold;
  Status scan_error;
  table.Scan([&](const Row& row) {
    if (spec.window != 0) {
      auto ts = row[bound.ts_idx].AsTimestamp();
      if (!ts.ok()) {
        scan_error = ts.status();
        return false;
      }
      if (!InWindow(*ts, start, ctx.now)) return true;
    }
    if (spec.where) {
      RowView rv{&schema, &row};
      auto pred = RunScalar(bound.where_scalar, ctx, &rv, nullptr);
      if (!pred.ok()) {
        scan_error = pred.status();
        return false;
      }
      if (pred->tag != RegVal::Tag::kBool) {
        scan_error = Status::InvalidArgument("WHERE predicate is not boolean");
        return false;
      }
      if (PREVER_MUTATION(PROG_SCAN_WHERE_SKIP, !pred->b, false)) return true;
    }
    if (spec.exists) {
      fold.Add(0);
      return false;  // One match suffices.
    }
    if (!needs_value) {
      fold.Add(0);
      return true;
    }
    auto v = row[bound.column_idx].AsNumeric();
    if (!v.ok()) {
      scan_error = v.status();
      return false;
    }
    fold.Add(*v);
    return true;
  });
  if (!scan_error.ok()) return scan_error;
  return fold.Finish(spec);
}

}  // namespace

Result<Value> EvaluateSpecByScan(const BoundSpec& bound,
                                 const EvalContext& ctx) {
  if (ctx.db == nullptr) {
    return Status::InvalidArgument("no database bound for aggregate");
  }
  PREVER_ASSIGN_OR_RETURN(const storage::Table* table,
                          ctx.db->GetTable(bound.spec->table));
  return ScalarSpecScan(bound, ctx, *table);
}

}  // namespace prever::constraint
