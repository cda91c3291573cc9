#include <gtest/gtest.h>

#include "constraint/constraint.h"
#include "constraint/eval.h"
#include "constraint/linear.h"
#include "constraint/parser.h"
#include "constraint/verifier.h"
#include "common/rng.h"

namespace prever::constraint {
namespace {

using storage::Database;
using storage::Mutation;
using storage::Row;
using storage::Schema;
using storage::Value;
using storage::ValueType;

// ----------------------------------------------------------------- Parser

TEST(ParserTest, SimpleComparison) {
  auto e = ParseConstraint("update.hours <= 40");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kBinary);
  EXPECT_EQ((*e)->binary_op, BinaryOp::kLe);
  EXPECT_EQ((*e)->ToString(), "(update.hours <= 40)");
}

TEST(ParserTest, OperatorPrecedence) {
  auto e = ParseConstraint("1 + 2 * 3 = 7");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->ToString(), "((1 + (2 * 3)) = 7)");
}

TEST(ParserTest, LogicalPrecedence) {
  auto e = ParseConstraint("true OR false AND false");
  ASSERT_TRUE(e.ok());
  // AND binds tighter than OR.
  EXPECT_EQ((*e)->ToString(), "(true OR (false AND false))");
}

TEST(ParserTest, NotAndParens) {
  auto e = ParseConstraint("NOT (a = 1 OR b = 2)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kUnary);
}

TEST(ParserTest, StringLiteralsBothQuotes) {
  auto e1 = ParseConstraint("update.worker = 'w1'");
  auto e2 = ParseConstraint("update.worker = \"w1\"");
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ((*e1)->ToString(), (*e2)->ToString());
}

TEST(ParserTest, DurationLiterals) {
  auto e = ParseConstraint("update.age <= 2h");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(*(*e)->rhs->literal.AsInt64(), static_cast<int64_t>(2 * kHour));
}

TEST(ParserTest, AggregateFull) {
  auto e = ParseConstraint(
      "SUM(worklog.hours WHERE worker = update.worker WINDOW 7d) + "
      "update.hours <= 40");
  ASSERT_TRUE(e.ok());
  const Expr& cmp = **e;
  EXPECT_EQ(cmp.binary_op, BinaryOp::kLe);
  const Expr& add = *cmp.lhs;
  EXPECT_EQ(add.binary_op, BinaryOp::kAdd);
  const Expr& agg = *add.lhs;
  EXPECT_EQ(agg.kind, ExprKind::kAggregate);
  EXPECT_EQ(agg.agg_kind, AggregateKind::kSum);
  EXPECT_EQ(agg.table, "worklog");
  EXPECT_EQ(agg.column, "hours");
  EXPECT_EQ(agg.window, kWeek);
  ASSERT_NE(agg.where, nullptr);
}

TEST(ParserTest, CountWithoutColumn) {
  auto e = ParseConstraint("COUNT(attendees) < 500");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->lhs->agg_kind, AggregateKind::kCount);
  EXPECT_TRUE((*e)->lhs->column.empty());
}

TEST(ParserTest, SumRequiresColumn) {
  EXPECT_FALSE(ParseConstraint("SUM(worklog) <= 40").ok());
}

TEST(ParserTest, KeywordsCaseInsensitive) {
  auto e = ParseConstraint("not true and false or true");
  ASSERT_TRUE(e.ok());
}

TEST(ParserTest, RoundTripThroughToString) {
  const char* cases[] = {
      "(update.hours <= 40)",
      "(SUM(worklog.hours WHERE (worker = update.worker) WINDOW 7d) <= 40)",
      "((COUNT(attendees) < 500) AND (update.vaccinated = true))",
      "(NOT ((a = 1)) OR (b != \"x\"))",
  };
  for (const char* text : cases) {
    auto e = ParseConstraint(text);
    ASSERT_TRUE(e.ok()) << text;
    auto e2 = ParseConstraint((*e)->ToString());
    ASSERT_TRUE(e2.ok()) << (*e)->ToString();
    EXPECT_EQ((*e)->ToString(), (*e2)->ToString());
  }
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseConstraint("").ok());
  EXPECT_FALSE(ParseConstraint("1 +").ok());
  EXPECT_FALSE(ParseConstraint("(1 + 2").ok());
  EXPECT_FALSE(ParseConstraint("1 2").ok());
  EXPECT_FALSE(ParseConstraint("'unterminated").ok());
  EXPECT_FALSE(ParseConstraint("a # b").ok());
  EXPECT_FALSE(ParseConstraint("SUM(t.c WINDOW 7)").ok());  // Not a duration.
  EXPECT_FALSE(ParseConstraint("update.").ok());
  EXPECT_FALSE(ParseConstraint("99999999999999999999 = 1").ok());  // Overflow.
}

TEST(ParserTest, NotEqualsSpellings) {
  auto e1 = ParseConstraint("a != 1");
  auto e2 = ParseConstraint("a <> 1");
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ((*e1)->ToString(), (*e2)->ToString());
}

TEST(ParserTest, ExistsForms) {
  auto e = ParseConstraint("EXISTS(attendees WHERE name = update.name)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kExists);
  EXPECT_EQ((*e)->table, "attendees");
  auto bare = ParseConstraint("EXISTS(attendees)");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ((*bare)->where, nullptr);
  auto windowed = ParseConstraint("NOT EXISTS(worklog WINDOW 1d)");
  ASSERT_TRUE(windowed.ok());
  EXPECT_FALSE(ParseConstraint("EXISTS()").ok());
}

TEST(ParserTest, ExistsRoundTripsThroughToString) {
  auto e = ParseConstraint(
      "NOT EXISTS(worklog WHERE worker = update.worker WINDOW 1d)");
  ASSERT_TRUE(e.ok());
  auto e2 = ParseConstraint((*e)->ToString());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ((*e)->ToString(), (*e2)->ToString());
}

TEST(ParserTest, ForAllForms) {
  auto e = ParseConstraint(
      "FORALL(orders.customer : SUM(orders.amount WHERE customer = group) "
      "<= 1000)");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ((*e)->kind, ExprKind::kForAll);
  EXPECT_EQ((*e)->table, "orders");
  EXPECT_EQ((*e)->column, "customer");
  // Round trip.
  auto e2 = ParseConstraint((*e)->ToString());
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ((*e)->ToString(), (*e2)->ToString());
  // Errors.
  EXPECT_FALSE(ParseConstraint("FORALL(orders : true)").ok());  // No column.
  EXPECT_FALSE(ParseConstraint("FORALL(orders.customer true)").ok());
}

// -------------------------------------------------------------- Evaluator

class EvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema worklog({{"id", ValueType::kString},
                    {"worker", ValueType::kString},
                    {"hours", ValueType::kInt64},
                    {"at", ValueType::kTimestamp}});
    ASSERT_TRUE(db_.CreateTable("worklog", worklog).ok());
    AddEntry("t1", "w1", 10, 1 * kDay);
    AddEntry("t2", "w1", 20, 3 * kDay);
    AddEntry("t3", "w2", 35, 3 * kDay);
    AddEntry("t4", "w1", 8, 20 * kDay);  // Old entry, outside 7d windows.
    now_ = 7 * kDay;
  }

  void AddEntry(const std::string& id, const std::string& worker,
                int64_t hours, SimTime at) {
    Mutation m;
    m.op = Mutation::Op::kInsert;
    m.table = "worklog";
    m.row = {Value::String(id), Value::String(worker), Value::Int64(hours),
             Value::Timestamp(at)};
    ASSERT_TRUE(db_.Apply(m).ok());
  }

  Result<Value> Eval(const std::string& text) {
    auto e = ParseConstraint(text);
    if (!e.ok()) return e.status();
    EvalContext ctx{&db_, &update_, now_};
    return Evaluate(**e, ctx);
  }

  Database db_;
  UpdateFields update_ = {{"worker", Value::String("w1")},
                          {"hours", Value::Int64(5)},
                          {"vaccinated", Value::Bool(true)}};
  SimTime now_ = 0;
};

TEST_F(EvalTest, Arithmetic) {
  EXPECT_EQ(*Eval("1 + 2 * 3 - 4"), Value::Int64(3));
  EXPECT_EQ(*Eval("7 / 2"), Value::Int64(3));
  EXPECT_EQ(*Eval("7 % 3"), Value::Int64(1));
  EXPECT_EQ(*Eval("-(5)"), Value::Int64(-5));
}

TEST_F(EvalTest, DivisionByZeroFails) {
  EXPECT_FALSE(Eval("1 / 0").ok());
  EXPECT_FALSE(Eval("1 % 0").ok());
}

TEST_F(EvalTest, Comparisons) {
  EXPECT_EQ(*Eval("1 < 2"), Value::Bool(true));
  EXPECT_EQ(*Eval("2 <= 2"), Value::Bool(true));
  EXPECT_EQ(*Eval("'a' < 'b'"), Value::Bool(true));
  EXPECT_EQ(*Eval("'a' = 'a'"), Value::Bool(true));
  EXPECT_EQ(*Eval("true = true"), Value::Bool(true));
  EXPECT_EQ(*Eval("true != false"), Value::Bool(true));
}

TEST_F(EvalTest, BoolOrderingRejected) {
  EXPECT_FALSE(Eval("true < false").ok());
}

TEST_F(EvalTest, MixedTypeComparisonRejected) {
  EXPECT_FALSE(Eval("'a' < 1").ok());
}

TEST_F(EvalTest, LogicalOpsShortCircuit) {
  EXPECT_EQ(*Eval("false AND 1 / 0 = 1"), Value::Bool(false));
  EXPECT_EQ(*Eval("true OR 1 / 0 = 1"), Value::Bool(true));
  EXPECT_EQ(*Eval("NOT false"), Value::Bool(true));
}

TEST_F(EvalTest, UpdateFieldAccess) {
  EXPECT_EQ(*Eval("update.hours"), Value::Int64(5));
  EXPECT_EQ(*Eval("hours"), Value::Int64(5));  // Bare name at top level.
  EXPECT_EQ(*Eval("update.vaccinated"), Value::Bool(true));
  EXPECT_FALSE(Eval("update.nope").ok());
  EXPECT_FALSE(Eval("other.hours").ok());
}

TEST_F(EvalTest, AggregatesNoWindow) {
  EXPECT_EQ(*Eval("COUNT(worklog)"), Value::Int64(4));
  EXPECT_EQ(*Eval("SUM(worklog.hours)"), Value::Int64(73));
  EXPECT_EQ(*Eval("MIN(worklog.hours)"), Value::Int64(8));
  EXPECT_EQ(*Eval("MAX(worklog.hours)"), Value::Int64(35));
  EXPECT_EQ(*Eval("AVG(worklog.hours)"), Value::Int64(18));
}

TEST_F(EvalTest, AggregateWithPredicate) {
  EXPECT_EQ(*Eval("SUM(worklog.hours WHERE worker = 'w1')"), Value::Int64(38));
  EXPECT_EQ(*Eval("COUNT(worklog WHERE hours > 15)"), Value::Int64(2));
  EXPECT_EQ(*Eval("SUM(worklog.hours WHERE worker = update.worker)"),
            Value::Int64(38));
}

TEST_F(EvalTest, AggregateWithWindow) {
  // now = 7d; entries at 1d, 3d, 3d are inside (0, 7d]; 20d is outside.
  EXPECT_EQ(*Eval("SUM(worklog.hours WINDOW 7d)"), Value::Int64(65));
  EXPECT_EQ(*Eval("COUNT(worklog WINDOW 7d)"), Value::Int64(3));
  // Narrow window covering only the 3d entries (window (4d, 7d] ... entries
  // at 3d excluded; at 1d excluded).
  EXPECT_EQ(*Eval("COUNT(worklog WINDOW 3d)"), Value::Int64(0));
}

TEST_F(EvalTest, FlsaConstraintScenario) {
  // w1 has 30 hours inside the window; adding 5 keeps it at 35 <= 40.
  EXPECT_EQ(*Eval("SUM(worklog.hours WHERE worker = update.worker WINDOW 7d) "
                  "+ update.hours <= 40"),
            Value::Bool(true));
  // A 12-hour task would hit 42 > 40.
  update_["hours"] = Value::Int64(12);
  EXPECT_EQ(*Eval("SUM(worklog.hours WHERE worker = update.worker WINDOW 7d) "
                  "+ update.hours <= 40"),
            Value::Bool(false));
}

TEST_F(EvalTest, EmptyAggregates) {
  EXPECT_EQ(*Eval("COUNT(worklog WHERE worker = 'nobody')"), Value::Int64(0));
  EXPECT_EQ(*Eval("SUM(worklog.hours WHERE worker = 'nobody')"),
            Value::Int64(0));
  EXPECT_EQ(*Eval("AVG(worklog.hours WHERE worker = 'nobody')"),
            Value::Int64(0));
  EXPECT_FALSE(Eval("MIN(worklog.hours WHERE worker = 'nobody')").ok());
  EXPECT_FALSE(Eval("MAX(worklog.hours WHERE worker = 'nobody')").ok());
}

TEST_F(EvalTest, AggregateUnknownTableOrColumn) {
  EXPECT_FALSE(Eval("COUNT(nope)").ok());
  EXPECT_FALSE(Eval("SUM(worklog.nope)").ok());
}

TEST_F(EvalTest, WindowRequiresTimestampColumn) {
  Schema no_ts({{"k", ValueType::kString}, {"v", ValueType::kInt64}});
  ASSERT_TRUE(db_.CreateTable("no_ts", no_ts).ok());
  EXPECT_FALSE(Eval("COUNT(no_ts WINDOW 1d)").ok());
}

TEST_F(EvalTest, ExistsEvaluates) {
  EXPECT_EQ(*Eval("EXISTS(worklog WHERE worker = 'w1')"), Value::Bool(true));
  EXPECT_EQ(*Eval("EXISTS(worklog WHERE worker = 'nobody')"),
            Value::Bool(false));
  EXPECT_EQ(*Eval("NOT EXISTS(worklog WHERE hours > 100)"),
            Value::Bool(true));
  // Windowed: only entries in the last 7 days (now = 7d) count.
  EXPECT_EQ(*Eval("EXISTS(worklog WHERE worker = 'w1' WINDOW 7d)"),
            Value::Bool(true));
}

TEST_F(EvalTest, ExistsAsDuplicateGuard) {
  // The classic primary-key-style constraint: reject an update whose id
  // already exists.
  update_["id"] = Value::String("t1");
  EXPECT_EQ(*Eval("NOT EXISTS(worklog WHERE id = update.id)"),
            Value::Bool(false));  // t1 exists: guard trips.
  update_["id"] = Value::String("t99");
  EXPECT_EQ(*Eval("NOT EXISTS(worklog WHERE id = update.id)"),
            Value::Bool(true));
}

TEST_F(EvalTest, CorrelatedNestedAggregate) {
  // Join-style constraint: count workers in `worklog` that have a matching
  // entry (same worker id) with MORE hours elsewhere in the table —
  // exercises `outer.` correlation across nested scans.
  // For each row r: EXISTS(worklog WHERE worker = outer.worker AND
  //                                       hours > outer.hours)
  // holds for t1 (w1,10 — t2 has 20) and t4 (w1,8 — t1/t2 bigger), not for
  // t2 (w1's max) and not for t3 (w2's only entry).
  EXPECT_EQ(*Eval("COUNT(worklog WHERE EXISTS(worklog WHERE "
                  "worker = outer.worker AND hours > outer.hours))"),
            Value::Int64(2));
}

TEST_F(EvalTest, OuterWithoutEnclosingScanFails) {
  EXPECT_FALSE(Eval("outer.hours = 1").ok());
  EXPECT_FALSE(Eval("COUNT(worklog WHERE outer.hours = 1)").ok());
}

TEST_F(EvalTest, ForAllQuantifiesOverGroups) {
  // Per-worker totals: w1 = 38 (10+20+8), w2 = 35.
  EXPECT_EQ(*Eval("FORALL(worklog.worker : "
                  "SUM(worklog.hours WHERE worker = group) <= 40)"),
            Value::Bool(true));
  EXPECT_EQ(*Eval("FORALL(worklog.worker : "
                  "SUM(worklog.hours WHERE worker = group) <= 37)"),
            Value::Bool(false));  // w1's 38 breaks it.
  EXPECT_EQ(*Eval("FORALL(worklog.worker : "
                  "SUM(worklog.hours WHERE worker = group) <= 38)"),
            Value::Bool(true));
}

TEST_F(EvalTest, ForAllVacuousOverEmptyGroupSet) {
  Schema empty_schema({{"k", ValueType::kString}});
  ASSERT_TRUE(db_.CreateTable("empty_table", empty_schema).ok());
  EXPECT_EQ(*Eval("FORALL(empty_table.k : false)"), Value::Bool(true));
}

TEST_F(EvalTest, ForAllErrors) {
  EXPECT_FALSE(Eval("FORALL(nope.c : true)").ok());
  EXPECT_FALSE(Eval("FORALL(worklog.nope : true)").ok());
  EXPECT_FALSE(Eval("FORALL(worklog.worker : 1 + 1)").ok());  // Non-bool.
  // `group` outside FORALL is unresolved.
  EXPECT_FALSE(Eval("group = 'w1'").ok());
}

TEST_F(EvalTest, EvaluateBoolRejectsNonBool) {
  auto e = ParseConstraint("1 + 1");
  ASSERT_TRUE(e.ok());
  EvalContext ctx{&db_, &update_, now_};
  EXPECT_FALSE(EvaluateBool(**e, ctx).ok());
}

// ---------------------------------------------------------------- Catalog

TEST(CatalogTest, AddFindRemove) {
  ConstraintCatalog catalog;
  ASSERT_TRUE(catalog
                  .Add("flsa", ConstraintScope::kRegulation,
                       ConstraintVisibility::kPublic, "update.hours <= 40")
                  .ok());
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_TRUE(catalog.Find("flsa").ok());
  EXPECT_FALSE(catalog.Find("nope").ok());
  EXPECT_FALSE(catalog
                   .Add("flsa", ConstraintScope::kRegulation,
                        ConstraintVisibility::kPublic, "true")
                   .ok());
  EXPECT_TRUE(catalog.Remove("flsa").ok());
  EXPECT_FALSE(catalog.Remove("flsa").ok());
}

TEST(CatalogTest, AddRejectsParseErrors) {
  ConstraintCatalog catalog;
  EXPECT_FALSE(catalog
                   .Add("bad", ConstraintScope::kInternal,
                        ConstraintVisibility::kPublic, "1 +")
                   .ok());
}

TEST(CatalogTest, CheckAllReportsFirstViolation) {
  ConstraintCatalog catalog;
  ASSERT_TRUE(catalog
                  .Add("pass", ConstraintScope::kInternal,
                       ConstraintVisibility::kPublic, "update.hours >= 0")
                  .ok());
  ASSERT_TRUE(catalog
                  .Add("fail", ConstraintScope::kRegulation,
                       ConstraintVisibility::kPublic, "update.hours <= 40")
                  .ok());
  UpdateFields update = {{"hours", Value::Int64(50)}};
  EvalContext ctx{nullptr, &update, 0};
  Status s = catalog.CheckAll(ctx);
  EXPECT_EQ(s.code(), StatusCode::kConstraintViolation);
  EXPECT_NE(s.message().find("fail"), std::string::npos);
}

TEST(CatalogTest, ConstraintCopyIsDeep) {
  ConstraintCatalog catalog;
  ASSERT_TRUE(catalog
                  .Add("c", ConstraintScope::kInternal,
                       ConstraintVisibility::kPrivate, "update.x = 1")
                  .ok());
  Constraint copy = *catalog.Find("c").value();
  EXPECT_EQ(copy.expr->ToString(), (*catalog.Find("c"))->expr->ToString());
  EXPECT_NE(copy.expr.get(), (*catalog.Find("c"))->expr.get());
}

TEST(CatalogTest, AddRejectsShapesThatDoNotCompile) {
  ConstraintCatalog catalog;
  ASSERT_TRUE(catalog
                  .Add("cap", ConstraintScope::kInternal,
                       ConstraintVisibility::kPublic,
                       "SUM(worklog.hours WHERE worker = update.worker) <= 40")
                  .ok());
  const uint64_t revision = catalog.revision();
  struct Case {
    const char* text;
    const char* named;  ///< The rejected shape the status must name.
  };
  const Case cases[] = {
      {"FORALL(worklog.worker : SUM(worklog.hours WHERE worker = group) "
       "<= 40)",
       "FORALL"},
      {"COUNT(worklog WHERE hours > outer.hours) = 0", "outer.hours"},
      {"group = 'w1'", "group"},
      {"COUNT(worklog WHERE hours > AVG(worklog.hours)) <= 3",
       "inside an aggregate"},
  };
  for (const Case& c : cases) {
    Status s = catalog.Add("bad", ConstraintScope::kInternal,
                           ConstraintVisibility::kPublic, c.text);
    EXPECT_EQ(s.code(), StatusCode::kNotSupported) << c.text;
    EXPECT_NE(s.message().find(c.named), std::string::npos) << s.message();
    EXPECT_EQ(catalog.size(), 1u) << c.text;
    EXPECT_EQ(catalog.revision(), revision) << c.text;
  }

  // The verifier serves exactly one database and evaluates only aggregates.
  Schema worklog({{"id", ValueType::kString},
                  {"worker", ValueType::kString},
                  {"hours", ValueType::kInt64}});
  Database db, other;
  ASSERT_TRUE(db.CreateTable("worklog", worklog).ok());
  ASSERT_TRUE(other.CreateTable("worklog", worklog).ok());
  CompiledVerifier verifier(catalog, db);
  UpdateFields update = {{"worker", Value::String("w1")}};
  EXPECT_TRUE(verifier.VerifyAll({&db, &update, 0}).ok());
  EXPECT_EQ(verifier.VerifyAll({&other, &update, 0}).code(),
            StatusCode::kInvalidArgument);
  auto sum = ParseConstraint("SUM(worklog.hours)");
  ASSERT_TRUE(sum.ok());
  EXPECT_TRUE(verifier.EvaluateAggregate(**sum, {&db, &update, 0}).ok());
  EXPECT_EQ(
      verifier.EvaluateAggregate(**sum, {&other, &update, 0}).status().code(),
      StatusCode::kInvalidArgument);
  auto scalar = ParseConstraint("update.hours + 1");
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(
      verifier.EvaluateAggregate(**scalar, {&db, &update, 0}).status().code(),
      StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ Linear form


// ------------------------------------------------------------ Parser fuzz

// Seeded grammar fuzzer: generates random well-formed constraint texts,
// then checks the printer/parser fixed point (parse -> ToString -> parse ->
// ToString is stable) and that both ASTs evaluate identically against a
// populated database. Free-text round-trip cases above pin known shapes;
// this sweeps the combinatorial space of nestings the hand-written cases
// miss.
class ParserFuzz {
 public:
  explicit ParserFuzz(uint64_t seed) : rng_(seed) {}

  std::string GenBool(int depth) {
    if (depth <= 0) {
      return rng_.NextBelow(2) ? GenComparison() : GenLeafBool();
    }
    switch (rng_.NextBelow(6)) {
      case 0:
        return GenBool(depth - 1) + " AND " + GenBool(depth - 1);
      case 1:
        return GenBool(depth - 1) + " OR " + GenBool(depth - 1);
      case 2:
        return "NOT (" + GenBool(depth - 1) + ")";
      case 3:
        return "EXISTS(worklog WHERE " + GenRowPredicate() + ")";
      case 4:
        return "FORALL(worklog.worker : " + GenGroupBody(depth - 1) + ")";
      default:
        return GenComparison();
    }
  }

 private:
  std::string GenComparison() {
    static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
    return GenArith(1) + " " + kOps[rng_.NextBelow(6)] + " " + GenArith(1);
  }

  std::string GenLeafBool() { return rng_.NextBelow(2) ? "true" : "false"; }

  std::string GenArith(int depth) {
    if (depth <= 0) return GenTerm();
    static const char* kOps[] = {"+", "-", "*"};
    switch (rng_.NextBelow(4)) {
      case 0:
        return "(" + GenArith(depth - 1) + " " + kOps[rng_.NextBelow(3)] +
               " " + GenArith(depth - 1) + ")";
      default:
        return GenTerm();
    }
  }

  std::string GenTerm() {
    switch (rng_.NextBelow(4)) {
      case 0:
        return std::to_string(rng_.NextInRange(0, 99));
      case 1:
        return "update.hours";
      case 2:
        return GenAggregate();
      default:
        return "COUNT(worklog)";
    }
  }

  std::string GenAggregate() {
    static const char* kAggs[] = {"SUM", "AVG", "MIN", "MAX"};
    std::string s = std::string(kAggs[rng_.NextBelow(4)]) + "(worklog.hours";
    if (rng_.NextBelow(2)) s += " WHERE " + GenRowPredicate();
    if (rng_.NextBelow(2)) {
      s += " WINDOW " + std::to_string(rng_.NextInRange(1, 9)) +
           (rng_.NextBelow(2) ? "d" : "h");
    }
    return s + ")";
  }

  std::string GenRowPredicate() {
    if (rng_.NextBelow(2)) {
      return std::string("worker = 'w") +
             std::to_string(rng_.NextInRange(1, 3)) + "'";
    }
    return "hours > " + std::to_string(rng_.NextInRange(0, 40));
  }

  // FORALL bodies may reference the bound `group` identifier.
  std::string GenGroupBody(int depth) {
    if (rng_.NextBelow(2)) {
      return "SUM(worklog.hours WHERE worker = group) <= " +
             std::to_string(rng_.NextInRange(0, 200));
    }
    return GenBool(depth);
  }

  prever::Rng rng_;
};

TEST_F(EvalTest, FuzzedConstraintsRoundTripAndEvaluateStably) {
  update_["hours"] = Value::Int64(12);
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    ParserFuzz fuzz(seed);
    std::string text = fuzz.GenBool(3);
    auto e1 = ParseConstraint(text);
    ASSERT_TRUE(e1.ok()) << "seed " << seed << ": " << text;
    std::string printed = (*e1)->ToString();
    auto e2 = ParseConstraint(printed);
    ASSERT_TRUE(e2.ok()) << "seed " << seed << ": " << printed;
    EXPECT_EQ(printed, (*e2)->ToString()) << "seed " << seed;

    EvalContext ctx{&db_, &update_, now_};
    auto v1 = Evaluate(**e1, ctx);
    auto v2 = Evaluate(**e2, ctx);
    ASSERT_EQ(v1.ok(), v2.ok()) << "seed " << seed << ": " << text;
    if (v1.ok()) {
      EXPECT_TRUE(*v1 == *v2) << "seed " << seed << ": " << text;
    } else {
      EXPECT_EQ(v1.status().code(), v2.status().code())
          << "seed " << seed << ": " << text;
    }
  }
}

TEST(LinearTest, ExtractsFlsaShape) {
  auto e = ParseConstraint(
      "SUM(worklog.hours WHERE worker = update.worker WINDOW 7d) + "
      "update.hours <= 40");
  ASSERT_TRUE(e.ok());
  auto form = ExtractLinearBound(**e);
  ASSERT_TRUE(form.ok());
  EXPECT_EQ(form->direction, BoundDirection::kUpper);
  EXPECT_EQ(form->bound, 40);
  EXPECT_EQ(form->update_terms, std::vector<std::string>{"hours"});
  EXPECT_EQ(form->aggregate->agg_kind, AggregateKind::kSum);
}

TEST(LinearTest, StrictUpperTightensBound) {
  auto e = ParseConstraint("COUNT(attendees) < 500");
  ASSERT_TRUE(e.ok());
  auto form = ExtractLinearBound(**e);
  ASSERT_TRUE(form.ok());
  EXPECT_EQ(form->bound, 499);
  EXPECT_EQ(form->direction, BoundDirection::kUpper);
  EXPECT_TRUE(form->update_terms.empty());
}

TEST(LinearTest, LowerBoundForms) {
  auto ge = ParseConstraint("SUM(worklog.hours) >= 10");
  auto gt = ParseConstraint("SUM(worklog.hours) > 10");
  ASSERT_TRUE(ge.ok() && gt.ok());
  EXPECT_EQ(ExtractLinearBound(**ge)->bound, 10);
  EXPECT_EQ(ExtractLinearBound(**ge)->direction, BoundDirection::kLower);
  EXPECT_EQ(ExtractLinearBound(**gt)->bound, 11);
}

TEST(LinearTest, FlippedComparisonNormalized) {
  auto e = ParseConstraint("40 >= SUM(worklog.hours) + update.hours");
  ASSERT_TRUE(e.ok());
  auto form = ExtractLinearBound(**e);
  ASSERT_TRUE(form.ok());
  EXPECT_EQ(form->direction, BoundDirection::kUpper);
  EXPECT_EQ(form->bound, 40);
}

TEST(LinearTest, RejectsNonLinearShapes) {
  const char* cases[] = {
      "update.hours = 40",                     // Equality, not a bound.
      "SUM(a.b) * 2 <= 40",                    // Scaled aggregate.
      "MIN(a.b) <= 40",                        // MIN has no linear form.
      "SUM(a.b) + SUM(c.d) <= 40",             // Two aggregates.
      "SUM(a.b) <= update.limit",              // Non-literal bound.
      "true",                                  // Not a comparison.
  };
  for (const char* text : cases) {
    auto e = ParseConstraint(text);
    ASSERT_TRUE(e.ok()) << text;
    EXPECT_FALSE(ExtractLinearBound(**e).ok()) << text;
  }
}

TEST(LinearTest, ConjunctionExtraction) {
  auto e = ParseConstraint(
      "SUM(w.h WHERE x = update.x) + update.h <= 40 AND COUNT(w) < 100");
  ASSERT_TRUE(e.ok());
  auto forms = ExtractLinearConjunction(**e);
  ASSERT_TRUE(forms.ok());
  ASSERT_EQ(forms->size(), 2u);
  EXPECT_EQ((*forms)[0].bound, 40);
  EXPECT_EQ((*forms)[1].bound, 99);
}

TEST(LinearTest, ConjunctionRejectsDisjunction) {
  auto e = ParseConstraint("SUM(w.h) <= 40 OR COUNT(w) < 100");
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(ExtractLinearConjunction(**e).ok());
}

}  // namespace
}  // namespace prever::constraint
