#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "expr/eval.h"
#include "expr/expr.h"

namespace datacell {
namespace {

Table SampleTable() {
  Table t(Schema({{"a", DataType::kInt64},
                  {"b", DataType::kDouble},
                  {"s", DataType::kString}}));
  EXPECT_TRUE(t.AppendRow({Value(1), Value(1.5), Value("x")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(2), Value(-2.0), Value("y")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(3), Value(0.5), Value("x")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(4), Value(9.0), Value("z")}).ok());
  return t;
}

TEST(ExprTest, ToStringRendering) {
  ExprPtr e = Expr::Bin(BinaryOp::kAnd,
                        Expr::Bin(BinaryOp::kGt, Expr::Col("a"), Expr::Lit(1)),
                        Expr::IsNull(Expr::Col("b"), true));
  EXPECT_EQ(e->ToString(), "((a > 1) and (b is not null))");
}

TEST(ExprTest, InferTypes) {
  Schema s({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  EXPECT_EQ(*InferExprType(
                s, *Expr::Bin(BinaryOp::kAdd, Expr::Col("a"), Expr::Lit(1))),
            DataType::kInt64);
  EXPECT_EQ(*InferExprType(
                s, *Expr::Bin(BinaryOp::kMul, Expr::Col("a"), Expr::Col("b"))),
            DataType::kDouble);
  EXPECT_EQ(*InferExprType(
                s, *Expr::Bin(BinaryOp::kLt, Expr::Col("a"), Expr::Lit(3))),
            DataType::kBool);
  EXPECT_FALSE(InferExprType(s, *Expr::Col("missing")).ok());
  EXPECT_FALSE(
      InferExprType(s, *Expr::Bin(BinaryOp::kAnd, Expr::Col("a"), Expr::Col("b")))
          .ok());
}

TEST(EvalConstTest, ArithmeticAndComparison) {
  EvalContext ctx;
  auto v = EvalConst(*Expr::Bin(BinaryOp::kAdd, Expr::Lit(2), Expr::Lit(3)), ctx);
  EXPECT_EQ(*v, Value(5));
  v = EvalConst(*Expr::Bin(BinaryOp::kDiv, Expr::Lit(7), Expr::Lit(2)), ctx);
  EXPECT_EQ(*v, Value(3));  // integer division
  v = EvalConst(*Expr::Bin(BinaryOp::kDiv, Expr::Lit(7.0), Expr::Lit(2)), ctx);
  EXPECT_EQ(*v, Value(3.5));
  v = EvalConst(*Expr::Bin(BinaryOp::kLt, Expr::Lit("a"), Expr::Lit("b")), ctx);
  EXPECT_EQ(*v, Value(true));
}

TEST(EvalConstTest, DivisionByZeroIsNull) {
  EvalContext ctx;
  auto v = EvalConst(*Expr::Bin(BinaryOp::kDiv, Expr::Lit(1), Expr::Lit(0)), ctx);
  EXPECT_TRUE(v->is_null());
  v = EvalConst(*Expr::Bin(BinaryOp::kMod, Expr::Lit(1), Expr::Lit(0)), ctx);
  EXPECT_TRUE(v->is_null());
}

TEST(EvalConstTest, NullPropagates) {
  EvalContext ctx;
  auto v = EvalConst(
      *Expr::Bin(BinaryOp::kAdd, Expr::Lit(Value::Null()), Expr::Lit(3)), ctx);
  EXPECT_TRUE(v->is_null());
}

TEST(EvalConstTest, NowUsesContext) {
  EvalContext ctx;
  ctx.now = 12345;
  auto v = EvalConst(*Expr::Call("now", {}), ctx);
  EXPECT_EQ(*v, Value(int64_t{12345}));
}

TEST(EvalConstTest, Variables) {
  std::map<std::string, Value> vars{{"threshold", Value(10)}};
  EvalContext ctx;
  ctx.variables = &vars;
  auto v = EvalConst(*Expr::Col("threshold"), ctx);
  EXPECT_EQ(*v, Value(10));
  EXPECT_FALSE(EvalConst(*Expr::Col("nope"), ctx).ok());
}

TEST(EvalConstTest, Functions) {
  EvalContext ctx;
  EXPECT_EQ(*EvalConst(*Expr::Call("abs", {Expr::Lit(-4)}), ctx), Value(4));
  EXPECT_EQ(*EvalConst(*Expr::Call("length", {Expr::Lit("abc")}), ctx),
            Value(3));
  EXPECT_EQ(*EvalConst(*Expr::Call("least", {Expr::Lit(4), Expr::Lit(2)}), ctx),
            Value(2));
  EXPECT_EQ(
      *EvalConst(*Expr::Call("greatest", {Expr::Lit(4), Expr::Lit(2)}), ctx),
      Value(4));
  EXPECT_EQ(*EvalConst(*Expr::Call("cast_int", {Expr::Lit(2.9)}), ctx),
            Value(2));
}

TEST(EvalScalarTest, ColumnArithmetic) {
  Table t = SampleTable();
  EvalContext ctx;
  auto col = EvalScalar(
      t, *Expr::Bin(BinaryOp::kMul, Expr::Col("a"), Expr::Lit(10)), ctx);
  ASSERT_TRUE(col.ok());
  ASSERT_EQ(col->size(), 4u);
  EXPECT_EQ(col->ints()[2], 30);
}

TEST(EvalScalarTest, MixedIntDoublePromotes) {
  Table t = SampleTable();
  EvalContext ctx;
  auto col =
      EvalScalar(t, *Expr::Bin(BinaryOp::kAdd, Expr::Col("a"), Expr::Col("b")),
                 ctx);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col->type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(col->doubles()[0], 2.5);
}

TEST(EvalScalarTest, UnaryOps) {
  Table t = SampleTable();
  EvalContext ctx;
  auto neg = EvalScalar(t, *Expr::Un(UnaryOp::kNeg, Expr::Col("a")), ctx);
  ASSERT_TRUE(neg.ok());
  EXPECT_EQ(neg->ints()[3], -4);
  auto b = EvalScalar(
      t,
      *Expr::Un(UnaryOp::kNot,
                Expr::Bin(BinaryOp::kGt, Expr::Col("a"), Expr::Lit(2))),
      ctx);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->bools()[0], 1);
  EXPECT_EQ(b->bools()[3], 0);
}

TEST(EvalScalarTest, DivByZeroColumnGivesNull) {
  Table t(Schema({{"x", DataType::kInt64}, {"y", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(10), Value(0)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(10), Value(2)}).ok());
  EvalContext ctx;
  auto col =
      EvalScalar(t, *Expr::Bin(BinaryOp::kDiv, Expr::Col("x"), Expr::Col("y")),
                 ctx);
  ASSERT_TRUE(col.ok());
  EXPECT_FALSE(col->IsValid(0));
  EXPECT_EQ(col->ints()[1], 5);
}

TEST(EvalPredicateTest, FastPathIntComparison) {
  Table t = SampleTable();
  EvalContext ctx;
  auto sel =
      EvalPredicate(t, *Expr::Bin(BinaryOp::kGt, Expr::Col("a"), Expr::Lit(2)),
                    ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{2, 3}));
}

TEST(EvalPredicateTest, FlippedComparison) {
  Table t = SampleTable();
  EvalContext ctx;
  // 2 < a  ==  a > 2
  auto sel =
      EvalPredicate(t, *Expr::Bin(BinaryOp::kLt, Expr::Lit(2), Expr::Col("a")),
                    ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{2, 3}));
}

TEST(EvalPredicateTest, AndRefines) {
  Table t = SampleTable();
  EvalContext ctx;
  ExprPtr pred = Expr::Bin(
      BinaryOp::kAnd, Expr::Bin(BinaryOp::kGt, Expr::Col("a"), Expr::Lit(1)),
      Expr::Bin(BinaryOp::kLt, Expr::Col("b"), Expr::Lit(1.0)));
  auto sel = EvalPredicate(t, *pred, ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{1, 2}));
}

TEST(EvalPredicateTest, OrUnions) {
  Table t = SampleTable();
  EvalContext ctx;
  ExprPtr pred = Expr::Bin(
      BinaryOp::kOr, Expr::Bin(BinaryOp::kEq, Expr::Col("a"), Expr::Lit(1)),
      Expr::Bin(BinaryOp::kEq, Expr::Col("s"), Expr::Lit("z")));
  auto sel = EvalPredicate(t, *pred, ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{0, 3}));
}

TEST(EvalPredicateTest, StringEquality) {
  Table t = SampleTable();
  EvalContext ctx;
  auto sel = EvalPredicate(
      t, *Expr::Bin(BinaryOp::kEq, Expr::Col("s"), Expr::Lit("x")), ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{0, 2}));
}

TEST(EvalPredicateTest, NullsNeverMatch) {
  Table t(Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3)}).ok());
  EvalContext ctx;
  auto sel = EvalPredicate(
      t, *Expr::Bin(BinaryOp::kGe, Expr::Col("x"), Expr::Lit(0)), ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{0, 2}));
  // IS NULL finds the hole.
  sel = EvalPredicate(t, *Expr::IsNull(Expr::Col("x"), false), ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{1}));
  sel = EvalPredicate(t, *Expr::IsNull(Expr::Col("x"), true), ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{0, 2}));
}

TEST(EvalPredicateTest, CandidateRestriction) {
  Table t = SampleTable();
  EvalContext ctx;
  SelVector cand{0, 3};
  auto sel = EvalPredicateOn(
      t, *Expr::Bin(BinaryOp::kGt, Expr::Col("a"), Expr::Lit(0)), cand, ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{0, 3}));
}

TEST(EvalPredicateTest, VariableInPredicate) {
  Table t = SampleTable();
  std::map<std::string, Value> vars{{"v1", Value(2)}};
  EvalContext ctx;
  ctx.variables = &vars;
  auto sel = EvalPredicate(
      t, *Expr::Bin(BinaryOp::kLe, Expr::Col("a"), Expr::Col("v1")), ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{0, 1}));
}

TEST(EvalPredicateTest, NonBooleanPredicateRejected) {
  Table t = SampleTable();
  EvalContext ctx;
  auto sel = EvalPredicate(t, *Expr::Col("a"), ctx);
  EXPECT_FALSE(sel.ok());
}

TEST(EvalScalarTest, TimestampArithmeticKeepsType) {
  Table t(Schema({{"ts", DataType::kTimestamp}}));
  ASSERT_TRUE(t.AppendRow({Value(int64_t{5'000'000})}).ok());
  EvalContext ctx;
  // ts + int -> timestamp (an interval shift).
  auto shifted = EvalScalar(
      t, *Expr::Bin(BinaryOp::kAdd, Expr::Col("ts"), Expr::Lit(int64_t{1'000'000})),
      ctx);
  ASSERT_TRUE(shifted.ok());
  EXPECT_EQ(shifted->type(), DataType::kTimestamp);
  EXPECT_EQ(shifted->ints()[0], 6'000'000);
}

TEST(EvalScalarTest, ModuloSemantics) {
  Table t(Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(7)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(-7)}).ok());
  EvalContext ctx;
  auto r = EvalScalar(t, *Expr::Bin(BinaryOp::kMod, Expr::Col("x"), Expr::Lit(3)),
                      ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->ints()[0], 1);
  EXPECT_EQ(r->ints()[1], -1);  // C++ truncating semantics
}

TEST(EvalPredicateTest, BoolColumnComparison) {
  Table t(Schema({{"flag", DataType::kBool}}));
  ASSERT_TRUE(t.AppendRow({Value(true)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(false)}).ok());
  EvalContext ctx;
  auto sel = EvalPredicate(
      t, *Expr::Bin(BinaryOp::kEq, Expr::Col("flag"), Expr::Lit(true)), ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{0}));
}

TEST(EvalPredicateTest, MixedIntColumnDoubleConstant) {
  Table t(Schema({{"x", DataType::kInt64}}));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i)}).ok());
  }
  EvalContext ctx;
  auto sel = EvalPredicate(
      t, *Expr::Bin(BinaryOp::kGt, Expr::Col("x"), Expr::Lit(2.5)), ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{3, 4}));
}

TEST(EvalPredicateTest, StringVsNumberComparisonRejected) {
  Table t(Schema({{"s", DataType::kString}}));
  ASSERT_TRUE(t.AppendRow({Value("x")}).ok());
  EvalContext ctx;
  EXPECT_FALSE(
      EvalPredicate(t, *Expr::Bin(BinaryOp::kLt, Expr::Col("s"), Expr::Lit(5)),
                    ctx)
          .ok());
}

// Property sweep: for random int columns, the fast path (col cmp const)
// agrees with the generic evaluator (forced by wrapping in NOT(NOT(x))).
class PredicateEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PredicateEquivalenceTest, FastAndSlowAgree) {
  auto [seed, threshold] = GetParam();
  Table t(Schema({{"x", DataType::kInt64}}));
  uint64_t state = static_cast<uint64_t>(seed) * 2654435761u + 1;
  for (int i = 0; i < 200; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    ASSERT_TRUE(t.AppendRow({Value(static_cast<int64_t>(state % 100))}).ok());
  }
  EvalContext ctx;
  ExprPtr cmp = Expr::Bin(BinaryOp::kLt, Expr::Col("x"), Expr::Lit(threshold));
  ExprPtr slow = Expr::Un(UnaryOp::kNot, Expr::Un(UnaryOp::kNot, cmp));
  auto fast_sel = EvalPredicate(t, *cmp, ctx);
  auto slow_sel = EvalPredicate(t, *slow, ctx);
  ASSERT_TRUE(fast_sel.ok());
  ASSERT_TRUE(slow_sel.ok());
  EXPECT_EQ(*fast_sel, *slow_sel);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PredicateEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Values(0, 10, 50, 99, 100)));


// --- Bulk kernels against a row-at-a-time reference -------------------------

constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();

// One row of a binary arithmetic op, computed the slow way: exact 128-bit
// integer arithmetic (NULL when the result leaves int64), IEEE doubles
// otherwise; NULL operands and zero divisors give NULL.
Value RefArith(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  if (a.is_int() && b.is_int()) {
    const __int128 x = a.int_value(), y = b.int_value();
    __int128 r = 0;
    switch (op) {
      case BinaryOp::kAdd: r = x + y; break;
      case BinaryOp::kSub: r = x - y; break;
      case BinaryOp::kMul: r = x * y; break;
      case BinaryOp::kDiv:
        if (y == 0) return Value::Null();
        r = x / y;
        break;
      default:
        if (y == 0 || (x == kMin64 && y == -1)) return Value::Null();
        r = x % y;
        break;
    }
    if (r < kMin64 || r > kMax64) return Value::Null();
    return Value(static_cast<int64_t>(r));
  }
  const double x = *a.AsDouble(), y = *b.AsDouble();
  switch (op) {
    case BinaryOp::kAdd: return Value(x + y);
    case BinaryOp::kSub: return Value(x - y);
    case BinaryOp::kMul: return Value(x * y);
    case BinaryOp::kDiv: return y == 0 ? Value::Null() : Value(x / y);
    default: return y == 0 ? Value::Null() : Value(std::fmod(x, y));
  }
}

// One row of a comparison: NULL folds to false; numbers compare as
// doubles through a -1/0/+1 three-way compare, strings lexicographically.
Value RefCompare(BinaryOp op, const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value(false);
  int cmp = 0;
  if (a.is_string()) {
    cmp = a.string_value().compare(b.string_value());
  } else {
    const double x = *a.AsDouble(), y = *b.AsDouble();
    cmp = x < y ? -1 : (x > y ? 1 : 0);
  }
  switch (op) {
    case BinaryOp::kEq: return Value(cmp == 0);
    case BinaryOp::kNe: return Value(cmp != 0);
    case BinaryOp::kLt: return Value(cmp < 0);
    case BinaryOp::kLe: return Value(cmp <= 0);
    case BinaryOp::kGt: return Value(cmp > 0);
    default: return Value(cmp >= 0);
  }
}

// Columns are byte-identical: type, rows, validity bytes and every value
// slot, including the zero placeholder under a NULL.
void ExpectSameColumn(const Column& got, const Column& want,
                      const std::string& what) {
  ASSERT_EQ(got.type(), want.type()) << what;
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_EQ(got.has_nulls(), want.has_nulls()) << what;
  const size_t n = got.size();
  if (n == 0) return;
  if (got.has_nulls()) {
    EXPECT_EQ(std::memcmp(got.raw_validity(), want.raw_validity(), n), 0)
        << what;
  }
  switch (got.type()) {
    case DataType::kInt64:
    case DataType::kTimestamp:
      EXPECT_TRUE(got.ints() == want.ints()) << what;
      break;
    case DataType::kDouble:
      EXPECT_EQ(std::memcmp(got.doubles().data(), want.doubles().data(),
                            n * sizeof(double)),
                0)
          << what;
      break;
    case DataType::kBool:
      EXPECT_TRUE(got.bools() == want.bools()) << what;
      break;
    case DataType::kString:
      EXPECT_TRUE(got.strings() == want.strings()) << what;
      break;
  }
}

// int, int with NULLs, double, double with NULLs, timestamp; zeros,
// negatives and the int64 edges included.
Table KernelTable() {
  Table t(Schema({{"i", DataType::kInt64},
                  {"in", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"dn", DataType::kDouble},
                  {"ts", DataType::kTimestamp},
                  {"s", DataType::kString}}));
  const std::vector<int64_t> ints = {0, 1, -1, 7, -13, 1000, kMax64, kMin64,
                                     kMin64 + 1, 3037000500, 42, -2};
  const std::vector<double> dbls = {0.0, 1.5, -2.25, 7.0, -0.0, 1e300,
                                    -1e-300, 3.0, 0.5, 100.0, -7.5, 2.0};
  const char* strs[] = {"a", "b", "", "abc", "b", "z", "a", "x", "y",
                        "b", "ab", "c"};
  for (size_t r = 0; r < ints.size(); ++r) {
    const bool null_row = r % 3 == 1;
    EXPECT_TRUE(t.AppendRow({Value(ints[r]),
                             null_row ? Value::Null() : Value(ints[r] / 3),
                             Value(dbls[r]),
                             null_row ? Value::Null() : Value(dbls[r] * 2),
                             Value(ints[r] / 1000), Value(strs[r])})
                    .ok());
  }
  return t;
}

// Evaluates `op` over (lhs, rhs) with EvalScalar and compares it with the
// reference applied to each row's operand values.
void CheckAgainstReference(const Table& t, BinaryOp op, const ExprPtr& lhs,
                           const ExprPtr& rhs) {
  EvalContext ctx;
  const ExprPtr e = Expr::Bin(op, lhs, rhs);
  const std::string what = e->ToString();
  auto got = EvalScalar(t, *e, ctx);
  ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
  auto l = EvalScalar(t, *lhs, ctx);
  auto r = EvalScalar(t, *rhs, ctx);
  ASSERT_TRUE(l.ok() && r.ok()) << what;
  const bool cmp = op >= BinaryOp::kEq && op <= BinaryOp::kGe;
  Column want(got->type());
  for (size_t i = 0; i < t.num_rows(); ++i) {
    const Value a = l->GetValue(i), b = r->GetValue(i);
    const Value v = cmp ? RefCompare(op, a, b) : RefArith(op, a, b);
    ASSERT_TRUE(want.AppendValue(v).ok()) << what;
  }
  ExpectSameColumn(*got, want, what);
}

TEST(BulkKernelTest, ArithmeticMatchesRowAtATimeReference) {
  const Table t = KernelTable();
  const std::vector<ExprPtr> cols = {Expr::Col("i"), Expr::Col("in"),
                                     Expr::Col("d"), Expr::Col("dn"),
                                     Expr::Col("ts")};
  const std::vector<ExprPtr> lits = {Expr::Lit(3),         Expr::Lit(0),
                                     Expr::Lit(-1),        Expr::Lit(kMax64),
                                     Expr::Lit(2.5),       Expr::Lit(0.0),
                                     Expr::Lit(Value::Null())};
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                      BinaryOp::kDiv, BinaryOp::kMod}) {
    for (const ExprPtr& c : cols) {
      for (const ExprPtr& k : lits) {
        CheckAgainstReference(t, op, c, k);  // literal on the right
        CheckAgainstReference(t, op, k, c);  // literal on the left
      }
      for (const ExprPtr& c2 : cols) CheckAgainstReference(t, op, c, c2);
    }
  }
}

TEST(BulkKernelTest, ComparisonMatchesRowAtATimeReference) {
  const Table t = KernelTable();
  const std::vector<ExprPtr> cols = {Expr::Col("i"), Expr::Col("in"),
                                     Expr::Col("d"), Expr::Col("dn"),
                                     Expr::Col("ts")};
  const std::vector<ExprPtr> lits = {Expr::Lit(7), Expr::Lit(0),
                                     Expr::Lit(kMin64), Expr::Lit(1.5),
                                     Expr::Lit(-0.0), Expr::Lit(Value::Null())};
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                      BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
    for (const ExprPtr& c : cols) {
      for (const ExprPtr& k : lits) {
        CheckAgainstReference(t, op, c, k);
        CheckAgainstReference(t, op, k, c);
      }
      for (const ExprPtr& c2 : cols) CheckAgainstReference(t, op, c, c2);
    }
    CheckAgainstReference(t, op, Expr::Col("s"), Expr::Lit("b"));
    CheckAgainstReference(t, op, Expr::Lit("b"), Expr::Col("s"));
  }
}

// A NaN compares "equal" to everything, as the -1/0/+1 row compare said.
TEST(BulkKernelTest, NaNComparesAsTheThreeWayCompareDid) {
  Table t(Schema({{"d", DataType::kDouble}, {"i", DataType::kInt64}}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(t.AppendRow({Value(nan), Value(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1.0), Value(2)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(-nan), Value::Null()}).ok());
  for (BinaryOp op : {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                      BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe}) {
    CheckAgainstReference(t, op, Expr::Col("d"), Expr::Lit(1.0));
    CheckAgainstReference(t, op, Expr::Lit(nan), Expr::Col("i"));
    CheckAgainstReference(t, op, Expr::Col("d"), Expr::Col("i"));
  }
}

TEST(BulkKernelTest, ComparingIncompatibleTypesFailsOnlyOnARealRow) {
  EvalContext ctx;
  const ExprPtr e = Expr::Bin(BinaryOp::kEq, Expr::Col("s"), Expr::Lit(1));
  EXPECT_EQ(EvalScalar(KernelTable(), *e, ctx).status().code(),
            StatusCode::kTypeMismatch);
  // No row with both sides non-NULL: nothing to compare, all false.
  Table empty(KernelTable().schema());
  auto r = EvalScalar(empty, *e, ctx);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 0u);
  const ExprPtr null_rhs =
      Expr::Bin(BinaryOp::kEq, Expr::Col("s"), Expr::Lit(Value::Null()));
  r = EvalScalar(KernelTable(), *null_rhs, ctx);
  ASSERT_TRUE(r.ok());
  for (size_t i = 0; i < r->size(); ++i) EXPECT_EQ(r->bools()[i], 0);
}

TEST(BulkKernelTest, BroadcastLiteralIsOneTypedColumn) {
  const Table t = KernelTable();
  EvalContext ctx;
  auto c = EvalScalar(t, *Expr::Lit(5), ctx);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->type(), DataType::kInt64);
  EXPECT_TRUE(c->ints() == std::vector<int64_t>(t.num_rows(), 5));
  EXPECT_FALSE(c->has_nulls());
  c = EvalScalar(t, *Expr::Lit(Value::Null()), ctx);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(c->has_nulls());
  for (size_t i = 0; i < c->size(); ++i) EXPECT_FALSE(c->IsValid(i));
  c = EvalScalar(t, *Expr::Lit("q"), ctx);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->strings() == std::vector<std::string>(t.num_rows(), "q"));
}

// --- Integer overflow -------------------------------------------------------

TEST(EvalConstTest, IntegerOverflowIsNull) {
  EvalContext ctx;
  auto eval = [&](BinaryOp op, int64_t a, int64_t b) {
    return *EvalConst(*Expr::Bin(op, Expr::Lit(a), Expr::Lit(b)), ctx);
  };
  EXPECT_TRUE(eval(BinaryOp::kAdd, kMax64, 1).is_null());
  EXPECT_TRUE(eval(BinaryOp::kSub, kMin64, 1).is_null());
  EXPECT_TRUE(eval(BinaryOp::kMul, kMax64, 2).is_null());
  EXPECT_TRUE(eval(BinaryOp::kDiv, kMin64, -1).is_null());
  EXPECT_TRUE(eval(BinaryOp::kMod, kMin64, -1).is_null());
  EXPECT_EQ(eval(BinaryOp::kAdd, kMax64, -1), Value(kMax64 - 1));
  EXPECT_EQ(eval(BinaryOp::kDiv, kMin64, 1), Value(kMin64));
  EXPECT_EQ(eval(BinaryOp::kMod, kMin64, 2), Value(int64_t{0}));
  auto neg = EvalConst(*Expr::Un(UnaryOp::kNeg, Expr::Lit(kMin64)), ctx);
  EXPECT_TRUE(neg->is_null());
  auto abs = EvalConst(*Expr::Call("abs", {Expr::Lit(kMin64)}), ctx);
  EXPECT_TRUE(abs->is_null());
}

// cast_int of a double with no int64 value is NULL, on the constant-fold
// path and the per-row column path alike. 9223372036854775807.0 rounds to
// 2^63, one past INT64_MAX; -9223372036854775808.0 is exactly INT64_MIN.
TEST(EvalConstTest, CastIntOutOfRangeIsNull) {
  const std::vector<double> in = {1e300,
                                  -1e300,
                                  std::numeric_limits<double>::quiet_NaN(),
                                  9223372036854775807.0,
                                  -9223372036854775808.0,
                                  2.9};
  const std::vector<Value> want = {Value::Null(), Value::Null(),
                                   Value::Null(), Value::Null(),
                                   Value(kMin64), Value(int64_t{2})};
  EvalContext ctx;
  Table t(Schema({{"d", DataType::kDouble}}));
  for (double d : in) ASSERT_TRUE(t.AppendRow({Value(d)}).ok());
  auto col = EvalScalar(t, *Expr::Call("cast_int", {Expr::Col("d")}), ctx);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  ASSERT_EQ(col->size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    auto folded = EvalConst(*Expr::Call("cast_int", {Expr::Lit(in[i])}), ctx);
    ASSERT_TRUE(folded.ok()) << in[i];
    EXPECT_EQ(*folded, want[i]) << "constant fold of " << in[i];
    EXPECT_EQ(col->GetValue(i), want[i]) << "column path of " << in[i];
  }
}

// The vector kernels and constant folding agree row by row on every
// overflowing and non-overflowing int64 case.
TEST(BulkKernelTest, OverflowMatchesConstantFolding) {
  const Table t = KernelTable();
  EvalContext ctx;
  const std::vector<int64_t> ks = {1, -1, 2, 0, kMax64, kMin64, 3037000500};
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                      BinaryOp::kDiv, BinaryOp::kMod}) {
    for (int64_t k : ks) {
      for (bool lit_left : {false, true}) {
        const ExprPtr col = Expr::Col("i");
        const ExprPtr lit = Expr::Lit(k);
        const ExprPtr e =
            lit_left ? Expr::Bin(op, lit, col) : Expr::Bin(op, col, lit);
        auto got = EvalScalar(t, *e, ctx);
        ASSERT_TRUE(got.ok()) << e->ToString();
        for (size_t i = 0; i < t.num_rows(); ++i) {
          const ExprPtr a = Expr::Lit(t.column(0).ints()[i]);
          const ExprPtr folded_expr =
              lit_left ? Expr::Bin(op, lit, a) : Expr::Bin(op, a, lit);
          auto folded = EvalConst(*folded_expr, ctx);
          ASSERT_TRUE(folded.ok());
          EXPECT_EQ(got->GetValue(i), *folded)
              << folded_expr->ToString() << " row " << i;
        }
      }
    }
  }
  // Unary minus and abs: INT64_MIN has no int64 negation.
  for (const ExprPtr& e :
       {Expr::Un(UnaryOp::kNeg, Expr::Col("i")),
        Expr::Call("abs", {Expr::Col("i")})}) {
    auto got = EvalScalar(t, *e, ctx);
    ASSERT_TRUE(got.ok());
    for (size_t i = 0; i < t.num_rows(); ++i) {
      const ExprPtr folded_expr =
          e->kind == ExprKind::kUnary
              ? Expr::Un(UnaryOp::kNeg, Expr::Lit(t.column(0).ints()[i]))
              : Expr::Call("abs", {Expr::Lit(t.column(0).ints()[i])});
      EXPECT_EQ(got->GetValue(i), *EvalConst(*folded_expr, ctx))
          << folded_expr->ToString();
    }
  }
}

// --- Chain kernel: `int64 col (op lit)* <cmp> lit` over candidates ----------

// Int column without NULLs (the chain kernel's shape), the same values with
// NULLs, and as doubles (both fallback shapes). Values include the int64
// edges and integers past 2^53, where the compare through double rounds.
Table ChainTable() {
  Table t(Schema({{"i", DataType::kInt64},
                  {"n", DataType::kInt64},
                  {"d", DataType::kDouble}}));
  constexpr int64_t k2p53 = int64_t{1} << 53;
  std::vector<int64_t> ints = {0,          1,          -1,        7,
                               -13,        1000,       kMax64,    kMin64,
                               kMin64 + 1, kMax64 - 1, k2p53 - 1, k2p53,
                               k2p53 + 1,  k2p53 + 2,  -k2p53 - 1, 3037000500};
  uint64_t state = 99;
  for (int r = 0; r < 284; ++r) {  // 300 rows: more than one 256-row block
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const int64_t x = static_cast<int64_t>(state >> 1);
    ints.push_back(r % 3 == 0 ? x : (x % 20001) - 10000);
  }
  for (size_t r = 0; r < ints.size(); ++r) {
    EXPECT_TRUE(t.AppendRow({Value(ints[r]),
                             r % 4 == 1 ? Value::Null() : Value(ints[r]),
                             Value(static_cast<double>(ints[r]))})
                    .ok());
  }
  return t;
}

// The generic evaluator's answer for the same predicate: NOT(NOT(e)) is
// outside every fast path.
SelVector GenericSelect(const Table& t, const ExprPtr& e,
                        const SelVector& cands) {
  EvalContext ctx;
  auto sel = EvalPredicateOn(
      t, *Expr::Un(UnaryOp::kNot, Expr::Un(UnaryOp::kNot, e)), cands, ctx);
  EXPECT_TRUE(sel.ok()) << e->ToString();
  return sel.ok() ? *sel : SelVector{};
}

SelVector ChainSelect(const Table& t, const ExprPtr& e,
                      const SelVector& cands) {
  EvalContext ctx;
  auto sel = EvalPredicateOn(t, *e, cands, ctx);
  EXPECT_TRUE(sel.ok()) << e->ToString();
  return sel.ok() ? *sel : SelVector{};
}

TEST(ChainKernelTest, CheckedArithmeticNullsAreNotSelected) {
  const Table t = ChainTable();
  const SelVector all = [&] {
    SelVector v(t.num_rows());
    for (size_t i = 0; i < v.size(); ++i) v[i] = static_cast<uint32_t>(i);
    return v;
  }();
  auto has = [](const SelVector& s, uint32_t r) {
    return std::find(s.begin(), s.end(), r) != s.end();
  };
  const ExprPtr i = Expr::Col("i");
  // Row 6 is INT64_MAX, row 7 INT64_MIN: the arithmetic overflows, so the
  // value is NULL and even `<> 0` does not select it.
  const ExprPtr times3 = Expr::Bin(
      BinaryOp::kNe, Expr::Bin(BinaryOp::kMul, i, Expr::Lit(3)), Expr::Lit(0));
  const SelVector a = ChainSelect(t, times3, all);
  EXPECT_FALSE(has(a, 6));
  EXPECT_TRUE(has(a, 1));
  EXPECT_EQ(a, GenericSelect(t, times3, all));
  const ExprPtr minus1 = Expr::Bin(
      BinaryOp::kNe, Expr::Bin(BinaryOp::kSub, i, Expr::Lit(1)), Expr::Lit(0));
  const SelVector b = ChainSelect(t, minus1, all);
  EXPECT_FALSE(has(b, 7));
  EXPECT_EQ(b, GenericSelect(t, minus1, all));
  // INT64_MIN % -1 and INT64_MIN / -1 have no int64 result; x / 0 never does.
  for (BinaryOp op : {BinaryOp::kMod, BinaryOp::kDiv}) {
    const ExprPtr e = Expr::Bin(
        BinaryOp::kGe, Expr::Bin(op, i, Expr::Lit(-1)), Expr::Lit(kMin64));
    const SelVector sel = ChainSelect(t, e, all);
    EXPECT_FALSE(has(sel, 7)) << e->ToString();
    EXPECT_TRUE(has(sel, 8)) << e->ToString();
    EXPECT_EQ(sel, GenericSelect(t, e, all));
  }
  const ExprPtr div0 = Expr::Bin(
      BinaryOp::kNe, Expr::Bin(BinaryOp::kDiv, i, Expr::Lit(0)), Expr::Lit(1));
  EXPECT_TRUE(ChainSelect(t, div0, all).empty());
  EXPECT_TRUE(GenericSelect(t, div0, all).empty());
}

// Random chains, literal sides, comparisons and candidate lists: the chain
// kernel (and, for the nullable and double columns, the fallback it must
// take) returns exactly the generic evaluator's selection.
TEST(ChainKernelTest, MatchesGenericEvaluatorOnRandomChains) {
  const Table t = ChainTable();
  constexpr int64_t k2p53 = int64_t{1} << 53;
  const std::vector<int64_t> lits = {0,      1,          -1,        2,
                                     3,      -3,         7,         8,
                                     1000,   kMax64,     kMin64,    k2p53 + 1,
                                     -k2p53, 3037000500, 123456789, -77};
  const BinaryOp arith[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                            BinaryOp::kDiv, BinaryOp::kMod};
  const BinaryOp cmps[] = {BinaryOp::kEq, BinaryOp::kNe, BinaryOp::kLt,
                           BinaryOp::kLe, BinaryOp::kGt, BinaryOp::kGe};
  uint64_t state = 12345;
  auto next = [&](uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  for (int iter = 0; iter < 600; ++iter) {
    ExprPtr chain =
        Expr::Col(iter % 10 == 0 ? "n" : (iter % 10 == 5 ? "d" : "i"));
    const size_t depth = 1 + next(3);
    for (size_t s = 0; s < depth; ++s) {
      const ExprPtr lit = Expr::Lit(lits[next(lits.size())]);
      const BinaryOp op = arith[next(5)];
      chain = next(4) == 0 ? Expr::Bin(op, lit, chain)
                         : Expr::Bin(op, chain, lit);
    }
    const ExprPtr k =
        Expr::Lit(next(2) == 0 ? lits[next(lits.size())]
                               : static_cast<int64_t>(next(2001)) - 1000);
    const BinaryOp cmp = cmps[next(6)];
    const ExprPtr e =
        next(4) == 0 ? Expr::Bin(cmp, k, chain) : Expr::Bin(cmp, chain, k);
    SelVector cands;
    const uint64_t keep = 1 + next(4);  // keep 1/4 .. all rows
    for (uint32_t r = 0; r < t.num_rows(); ++r) {
      if (next(4) < keep) cands.push_back(r);
    }
    EXPECT_EQ(ChainSelect(t, e, cands), GenericSelect(t, e, cands))
        << e->ToString();
  }
}

}  // namespace
}  // namespace datacell
