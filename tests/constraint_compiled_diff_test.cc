// Differential fuzz for the compiled constraint path: the bytecode
// evaluator + incremental aggregate cache must be observationally identical
// to the tree-walking interpreter — same values when both succeed, same
// status codes when either fails. The sweep covers the edges the compiled
// path is most likely to get wrong:
//   - WINDOW boundaries (rows pinned exactly at now - w and now, plus
//     one-microsecond neighbors on each side),
//   - NULL/absent update fields (the update sometimes lacks `hours` or
//     `quota`),
//   - int64 overflow edges (INT64_MAX-scale literals under wrapping + - *),
//   - zero divisors (/ and % by a literal 0),
//   - mixed-type comparisons (string vs numeric → identical error codes),
//   - incremental maintenance (commits folded through OnCommitted, then
//     re-compared against a fresh interpreter evaluation),
//   - non-cacheable WHERE shapes (row-vs-update comparisons, bare names
//     that resolve to update fields), which take the scalar row scan.
// scripts/check.sh runs this binary explicitly in the ASan+UBSan
// configuration, so any divergence or UB in either path fails the gate.

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "constraint/agg_cache.h"
#include "constraint/eval.h"
#include "constraint/parser.h"
#include "constraint/program.h"
#include "storage/database.h"

namespace prever::constraint {
namespace {

using storage::Mutation;
using storage::Schema;
using storage::Value;
using storage::ValueType;

Status InsertRow(storage::Database& db, const std::string& id,
                 const std::string& worker, int64_t hours, SimTime at) {
  Mutation m;
  m.op = Mutation::Op::kInsert;
  m.table = "worklog";
  m.row = {Value::String(id), Value::String(worker), Value::Int64(hours),
           Value::Timestamp(at)};
  return db.Apply(m);
}

Result<Value> RegValToValue(const RegVal& r) {
  switch (r.tag) {
    case RegVal::Tag::kNum:
      return Value::Int64(r.num);
    case RegVal::Tag::kBool:
      return Value::Bool(r.b);
    case RegVal::Tag::kStr:
      return Value::String(*r.str);
  }
  return Status::Internal("unreachable register tag");
}

/// Evaluates a compiled constraint the way CompiledVerifier does: RunScalar
/// over the top program with aggregates served by the (incremental) cache.
Result<Value> EvalCompiled(const CompiledConstraint& cc, const EvalContext& ctx,
                           AggregateCache& cache) {
  AggFn agg_fn = [&](size_t i) { return cache.Evaluate(*cc.aggs[i], ctx); };
  PREVER_ASSIGN_OR_RETURN(RegVal top,
                          RunScalar(cc.top, ctx, /*row=*/nullptr, &agg_fn));
  return RegValToValue(top);
}

/// Seeded grammar fuzzer biased toward the divergence-prone edges.
class DiffFuzz {
 public:
  explicit DiffFuzz(uint64_t seed) : rng_(seed) {}

  std::string GenBool(int depth) {
    if (depth <= 0) {
      return rng_.NextBelow(3) ? GenComparison() : GenLeafBool();
    }
    switch (rng_.NextBelow(8)) {
      case 0:
        return GenBool(depth - 1) + " AND " + GenBool(depth - 1);
      case 1:
        return GenBool(depth - 1) + " OR " + GenBool(depth - 1);
      case 2:
        return "NOT (" + GenBool(depth - 1) + ")";
      case 3:
        return "EXISTS(worklog WHERE " + GenRowPredicate() + ")";
      case 4:  // Rare: a shape the compiler must reject as NotSupported.
        return "FORALL(worklog.worker : SUM(worklog.hours WHERE worker = "
               "group) <= " +
               std::to_string(rng_.NextInRange(0, 200)) + ")";
      default:
        return GenComparison();
    }
  }

 private:
  std::string GenComparison() {
    static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
    const char* op = kOps[rng_.NextBelow(6)];
    if (rng_.NextBelow(8) == 0) {
      // Mixed / string comparisons: worker fields vs literals or numbers.
      std::string lhs =
          rng_.NextBelow(2) ? "update.worker"
                            : "'w" + std::to_string(rng_.NextInRange(1, 3)) +
                                  "'";
      std::string rhs = rng_.NextBelow(3) == 0
                            ? GenArith(0)
                            : "'w" + std::to_string(rng_.NextInRange(1, 3)) +
                                  "'";
      return lhs + " " + op + " " + rhs;
    }
    return GenArith(1) + " " + op + " " + GenArith(1);
  }

  std::string GenLeafBool() { return rng_.NextBelow(2) ? "true" : "false"; }

  std::string GenArith(int depth) {
    if (depth <= 0) return GenTerm();
    static const char* kOps[] = {"+", "-", "*", "/", "%"};
    switch (rng_.NextBelow(4)) {
      case 0:
        return "(" + GenArith(depth - 1) + " " + kOps[rng_.NextBelow(5)] +
               " " + GenArith(depth - 1) + ")";
      default:
        return GenTerm();
    }
  }

  std::string GenTerm() {
    switch (rng_.NextBelow(8)) {
      case 0:
        return std::to_string(rng_.NextInRange(0, 99));
      case 1:  // Zero divisors and additive identities.
        return "0";
      case 2:  // Wrapping-arithmetic edges.
        return rng_.NextBelow(2) ? "9223372036854775807"
                                 : "4611686018427387904";
      case 3:
        return "update.hours";  // Sometimes absent from the update.
      case 4:
        return GenAggregate();
      case 5:
        return "COUNT(worklog)";
      default:
        return std::to_string(rng_.NextInRange(0, 40));
    }
  }

  std::string GenAggregate() {
    static const char* kAggs[] = {"SUM", "AVG", "MIN", "MAX", "COUNT"};
    std::string s = std::string(kAggs[rng_.NextBelow(5)]) + "(worklog.hours";
    if (rng_.NextBelow(2)) s += " WHERE " + GenRowPredicate();
    if (rng_.NextBelow(2)) {
      s += " WINDOW " + std::to_string(rng_.NextInRange(1, 9)) +
           (rng_.NextBelow(2) ? "d" : "h");
    }
    return s + ")";
  }

  std::string GenRowPredicate() {
    switch (rng_.NextBelow(7)) {
      case 0:
        return "worker = 'w" + std::to_string(rng_.NextInRange(1, 3)) + "'";
      case 1:  // Cacheable group selector keyed off the update.
        return "worker = update.worker";
      case 2:
        return "hours > " + std::to_string(rng_.NextInRange(0, 40)) +
               " AND worker = 'w" + std::to_string(rng_.NextInRange(1, 3)) +
               "'";
      // Non-cacheable shapes: an update reference outside the single
      // equality selector, or a bare name that resolves to an update field,
      // keep the spec on the scalar row scan.
      case 3:
        return "hours > update.hours";
      case 4:
        return "worker = update.worker AND hours < update.hours";
      case 5:
        return "hours <= quota";
      default:
        return "hours > " + std::to_string(rng_.NextInRange(0, 40));
    }
  }

  prever::Rng rng_;
};

/// One interpreter-vs-compiled comparison; `label` contextualizes failures.
void CompareOnce(const Expr& expr, const CompiledConstraint& cc,
                 const EvalContext& ctx, AggregateCache& cache, uint64_t seed,
                 const std::string& text, const char* label) {
  auto vi = Evaluate(expr, ctx);
  auto vc = EvalCompiled(cc, ctx, cache);
  EXPECT_EQ(vi.ok(), vc.ok())
      << label << " seed " << seed << ": " << text << "\n interpreter: "
      << (vi.ok() ? "ok" : vi.status().message())
      << "\n compiled: " << (vc.ok() ? "ok" : vc.status().message());
  if (vi.ok() && vc.ok()) {
    EXPECT_TRUE(*vi == *vc) << label << " seed " << seed << ": " << text;
  } else if (!vi.ok() && !vc.ok()) {
    EXPECT_EQ(vi.status().code(), vc.status().code())
        << label << " seed " << seed << ": " << text << "\n interpreter: "
        << vi.status().message() << "\n compiled: " << vc.status().message();
  }
}

TEST(CompiledDiffFuzz, MatchesInterpreterAcrossSeeds) {
  constexpr uint64_t kSeeds = 260;
  constexpr uint64_t kScanEvalFloor = 100;
  constexpr SimTime kNow = 10 * kDay;
  uint64_t compiled_cases = 0;
  uint64_t forall_cases = 0;
  uint64_t scan_evals = 0;

  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    prever::Rng rng(seed * 7919 + 17);
    storage::Database db;
    Schema worklog({{"id", ValueType::kString},
                    {"worker", ValueType::kString},
                    {"hours", ValueType::kInt64},
                    {"at", ValueType::kTimestamp}});
    ASSERT_TRUE(db.CreateTable("worklog", worklog).ok());

    // Rows pinned to every window boundary the grammar can generate
    // (1..9 d/h behind now), each with ±1 microsecond neighbors, plus a
    // few random fills. Hours include negatives and INT64_MAX.
    int id = 0;
    auto add = [&](int64_t hours, SimTime at) {
      ASSERT_TRUE(InsertRow(db, "r" + std::to_string(id++),
                            "w" + std::to_string(rng.NextInRange(1, 3)), hours,
                            at)
                      .ok());
    };
    for (int k = 1; k <= 9; ++k) {
      if (rng.NextBelow(3) == 0) {
        SimTime unit = rng.NextBelow(2) ? kDay : kHour;
        SimTime edge = kNow - static_cast<SimTime>(k) * unit;
        add(rng.NextInRange(-20, 60), edge);
        if (rng.NextBelow(2)) add(rng.NextInRange(-20, 60), edge + 1);
        if (rng.NextBelow(2)) add(rng.NextInRange(-20, 60), edge - 1);
      }
    }
    add(rng.NextInRange(0, 40), kNow);  // ts == now exactly (in-window).
    if (rng.NextBelow(2)) {
      add(INT64_MAX, kNow - rng.NextInRange(1, 5) * kHour);  // Wrap edge.
    }
    for (int i = 0; i < 4; ++i) {
      add(rng.NextInRange(-10, 50),
          kNow - static_cast<SimTime>(rng.NextInRange(0, 9 * 24)) * kHour);
    }

    UpdateFields update = {{"worker", Value::String(
                                          "w" + std::to_string(
                                                    rng.NextInRange(1, 3)))}};
    if (rng.NextBelow(4) != 0) {  // Sometimes absent: unknown-field errors.
      update["hours"] = Value::Int64(rng.NextInRange(-5, 60));
    }
    if (rng.NextBelow(4) != 0) {  // `quota` is an update field, not a column.
      update["quota"] = Value::Int64(rng.NextInRange(-5, 60));
    }

    DiffFuzz fuzz(seed);
    std::string text = fuzz.GenBool(3);
    auto parsed = ParseConstraint(text);
    ASSERT_TRUE(parsed.ok()) << "seed " << seed << ": " << text;
    auto compiled = CompileConstraint(**parsed);
    if (text.find("FORALL") != std::string::npos) {
      // The catalog refuses this shape at Add; the compiler must say so.
      EXPECT_EQ(compiled.status().code(), StatusCode::kNotSupported)
          << "seed " << seed << ": " << text;
      ++forall_cases;
      continue;
    }
    ASSERT_TRUE(compiled.ok()) << "seed " << seed << ": " << text << ": "
                               << compiled.status().message();
    const CompiledConstraint& cc = *compiled;

    AggregateCache cache;
    EvalContext ctx{&db, &update, kNow};
    CompareOnce(**parsed, cc, ctx, cache, seed, text, "build");
    ++compiled_cases;

    // Incremental phase: commit random inserts through the cache's delta
    // path and advance `now`, then demand the cache still matches a fresh
    // interpreter evaluation (which always rescans).
    SimTime now2 = kNow;
    for (int step = 0; step < 3; ++step) {
      Mutation m;
      m.op = Mutation::Op::kInsert;
      m.table = "worklog";
      m.row = {Value::String("c" + std::to_string(step) + "_" +
                             std::to_string(seed)),
               Value::String("w" + std::to_string(rng.NextInRange(1, 3))),
               Value::Int64(rng.NextInRange(-15, 55)),
               Value::Timestamp(now2 - static_cast<SimTime>(
                                           rng.NextInRange(0, 48)) *
                                           kHour)};
      ASSERT_TRUE(db.Apply(m).ok());
      cache.OnCommitted(m);
      switch (rng.NextBelow(4)) {
        case 0:
          now2 += 1;  // One-microsecond window slide.
          break;
        case 1:
          now2 += kHour;
          break;
        case 2:
          now2 += kDay;
          break;
        default:
          break;  // Same instant: pure delta, no cursor motion.
      }
      EvalContext ctx2{&db, &update, now2};
      CompareOnce(**parsed, cc, ctx2, cache, seed, text, "incremental");
    }
    scan_evals += cache.stats().scan_evals;
  }

  // The sweep is only meaningful if the compiler actually handles the bulk
  // of the generated space; rejections should be the FORALL-shaped
  // minority, and that rejection must itself be exercised.
  EXPECT_GE(compiled_cases, kSeeds / 2)
      << "compiled " << compiled_cases << ", FORALL " << forall_cases;
  EXPECT_GT(forall_cases, 0u);
  // ...and only exercises the scalar scan if some generated shapes fall
  // outside the cacheable class.
  EXPECT_GT(scan_evals, kScanEvalFloor) << "scan evaluations " << scan_evals;
}

// ------------------------------------------------------------------
// Targeted goldens: the exact boundary semantics the fuzzer samples,
// pinned deterministically so a regression names the rule it broke.
// ------------------------------------------------------------------

class CompiledGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema worklog({{"id", ValueType::kString},
                    {"worker", ValueType::kString},
                    {"hours", ValueType::kInt64},
                    {"at", ValueType::kTimestamp}});
    ASSERT_TRUE(db_.CreateTable("worklog", worklog).ok());
    ASSERT_TRUE(InsertRow(db_, "t1", "w1", 10, 2 * kDay).ok());    // == start
    ASSERT_TRUE(InsertRow(db_, "t2", "w1", 20, 2 * kDay + 1).ok()); // first in
    ASSERT_TRUE(InsertRow(db_, "t3", "w1", 30, 7 * kDay).ok());    // == now
    ASSERT_TRUE(InsertRow(db_, "t4", "w2", 40, 3 * kDay).ok());
  }

  Result<Value> Both(const std::string& text) {
    auto parsed = ParseConstraint(text);
    if (!parsed.ok()) return parsed.status();
    // cache_ keys its state by AggregateSpec address and its commit
    // observer dereferences those keys, so every constraint the
    // fixture-lived cache has seen must outlive the cache — the same
    // ownership the CompiledVerifier gives its catalog entries.
    exprs_.push_back(std::move(*parsed));
    const Expr& expr = *exprs_.back();
    auto compiled = CompileConstraint(expr);
    if (!compiled.ok()) return compiled.status();
    ccs_.push_back(std::move(*compiled));
    CompiledConstraint& cc = ccs_.back();
    EvalContext ctx{&db_, &update_, now_};
    auto vi = Evaluate(expr, ctx);
    auto vc = EvalCompiled(cc, ctx, cache_);
    EXPECT_EQ(vi.ok(), vc.ok()) << text;
    if (vi.ok() && vc.ok()) {
      EXPECT_TRUE(*vi == *vc) << text;
    }
    if (!vi.ok() && !vc.ok()) {
      EXPECT_EQ(vi.status().code(), vc.status().code()) << text;
    }
    return vc;
  }

  /// Re-evaluates the most recent Both() constraint through the SAME
  /// compiled form — the production shape, where one compiled constraint
  /// is verified again and again across commits. A fresh Both() would
  /// compile a new spec and the cache would (correctly) rebuild for it.
  Result<Value> Recheck() {
    const Expr& expr = *exprs_.back();
    CompiledConstraint& cc = ccs_.back();
    EvalContext ctx{&db_, &update_, now_};
    auto vi = Evaluate(expr, ctx);
    auto vc = EvalCompiled(cc, ctx, cache_);
    EXPECT_EQ(vi.ok(), vc.ok());
    if (vi.ok() && vc.ok()) {
      EXPECT_TRUE(*vi == *vc);
    }
    return vc;
  }

  storage::Database db_;
  std::vector<std::unique_ptr<Expr>> exprs_;
  std::deque<CompiledConstraint> ccs_;
  AggregateCache cache_;
  UpdateFields update_ = {{"worker", Value::String("w1")},
                          {"hours", Value::Int64(5)}};
  SimTime now_ = 7 * kDay;
};

TEST_F(CompiledGoldenTest, WindowStartExclusiveEndInclusive) {
  auto v = Both("SUM(worklog.hours WHERE worker = 'w1' WINDOW 5d)");
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_TRUE(*v == Value::Int64(50));  // t2 + t3; t1 sits ON the start edge.
}

TEST_F(CompiledGoldenTest, WrappingArithmeticMatchesInterpreter) {
  auto v = Both("9223372036854775807 + 1 < 0");
  ASSERT_TRUE(v.ok()) << v.status().message();
  EXPECT_TRUE(*v == Value::Bool(true));  // Wraps to INT64_MIN in both paths.
}

TEST_F(CompiledGoldenTest, ZeroDivisorErrorsIdentically) {
  auto v = Both("(update.hours / 0) = 1");
  EXPECT_FALSE(v.ok());
}

TEST_F(CompiledGoldenTest, AbsentUpdateFieldErrorsIdentically) {
  auto v = Both("update.missing = 1");
  EXPECT_FALSE(v.ok());
}

TEST_F(CompiledGoldenTest, EmptyMinErrorsEmptyAvgIsZero) {
  auto v1 = Both("MIN(worklog.hours WHERE worker = 'zz') = 0");
  EXPECT_FALSE(v1.ok());
  auto v2 = Both("AVG(worklog.hours WHERE worker = 'zz')");
  ASSERT_TRUE(v2.ok()) << v2.status().message();
  EXPECT_TRUE(*v2 == Value::Int64(0));
}

TEST_F(CompiledGoldenTest, DeltaCommitsKeepCacheExact) {
  const std::string text = "SUM(worklog.hours WHERE worker = update.worker)";
  auto v1 = Both(text);
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(*v1 == Value::Int64(60));
  uint64_t builds_before = cache_.stats().cache_builds;
  Mutation m;
  m.op = Mutation::Op::kInsert;
  m.table = "worklog";
  m.row = {Value::String("t5"), Value::String("w1"), Value::Int64(7),
           Value::Timestamp(6 * kDay)};
  ASSERT_TRUE(db_.Apply(m).ok());
  cache_.OnCommitted(m);
  auto v2 = Recheck();
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(*v2 == Value::Int64(67));
  // The second evaluation must ride the delta, not a rebuild.
  EXPECT_EQ(cache_.stats().cache_builds, builds_before);
  EXPECT_GE(cache_.stats().delta_applies, 1u);
}

TEST_F(CompiledGoldenTest, NonInsertCommitsInvalidate) {
  const std::string text = "SUM(worklog.hours)";
  auto v1 = Both(text);
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(*v1 == Value::Int64(100));
  Mutation del;
  del.op = Mutation::Op::kDelete;
  del.table = "worklog";
  del.key = Value::String("t4");
  ASSERT_TRUE(db_.Apply(del).ok());
  cache_.OnCommitted(del);
  auto v2 = Recheck();
  ASSERT_TRUE(v2.ok());
  EXPECT_TRUE(*v2 == Value::Int64(60));
  EXPECT_GE(cache_.stats().invalidations, 1u);
}

}  // namespace
}  // namespace prever::constraint
