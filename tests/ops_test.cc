#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <map>
#include <string>
#include <thread>

#include "column/recycler.h"
#include "ops/aggregate.h"
#include "ops/join.h"
#include "ops/kernels.h"
#include "ops/morsel.h"
#include "ops/project.h"
#include "ops/select.h"
#include "ops/sort.h"
#include "util/random.h"
#include "util/simd.h"

namespace datacell {
namespace {

using ops::AggFunc;
using ops::AggItem;
using ops::GroupItem;
using ops::JoinKey;
using ops::ProjectionItem;
using ops::SortKey;

Table Orders() {
  Table t(Schema({{"id", DataType::kInt64},
                  {"cust", DataType::kString},
                  {"amount", DataType::kDouble}}));
  EXPECT_TRUE(t.AppendRow({Value(1), Value("ann"), Value(10.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(2), Value("bob"), Value(20.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(3), Value("ann"), Value(5.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(4), Value("cat"), Value(40.0)}).ok());
  EXPECT_TRUE(t.AppendRow({Value(5), Value("bob"), Value(15.0)}).ok());
  return t;
}

TEST(SelectTest, PredicateSelection) {
  Table t = Orders();
  EvalContext ctx;
  auto sel = EvalPredicate(
      t, *Expr::Bin(BinaryOp::kGe, Expr::Col("amount"), Expr::Lit(15.0)), ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{1, 3, 4}));
}

TEST(SelectTest, RangeScanInclusive) {
  Table t = Orders();
  auto sel = ops::SelectRange(t, "id", Value(2), true, Value(4), true);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{1, 2, 3}));
}

TEST(SelectTest, RangeScanExclusive) {
  Table t = Orders();
  auto sel = ops::SelectRange(t, "id", Value(2), false, Value(4), false);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{2}));
}

TEST(SelectTest, RangeOpenBounds) {
  Table t = Orders();
  auto sel = ops::SelectRange(t, "id", Value::Null(), true, Value(2), true);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{0, 1}));
  sel = ops::SelectRange(t, "id", Value(4), true, Value::Null(), true);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel, (SelVector{3, 4}));
}

TEST(SelectTest, RangeOnStringsRejected) {
  Table t = Orders();
  EXPECT_FALSE(ops::SelectRange(t, "cust", Value(1), true, Value(2), true).ok());
}

TEST(SelectTest, FilterMaterializes) {
  Table t = Orders();
  EvalContext ctx;
  auto sel = EvalPredicate(
      t, *Expr::Bin(BinaryOp::kEq, Expr::Col("cust"), Expr::Lit("ann")), ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(t.Take(*sel).num_rows(), 2u);
}

TEST(ProjectTest, SelectStar) {
  Table t = Orders();
  EvalContext ctx;
  std::vector<ProjectionItem> items = {{Expr::Col("id"), "id"},
                                       {Expr::Col("cust"), "cust"},
                                       {Expr::Col("amount"), "amount"}};
  auto out = ops::Project(t, items, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 5u);
  EXPECT_EQ(out->schema(), t.schema());
}

TEST(ProjectTest, ComputedColumnAndRename) {
  Table t = Orders();
  EvalContext ctx;
  std::vector<ProjectionItem> items = {
      {Expr::Col("id"), "order_id"},
      {Expr::Bin(BinaryOp::kMul, Expr::Col("amount"), Expr::Lit(2)), "dbl"}};
  auto out = ops::Project(t, items, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().field(0).name, "order_id");
  EXPECT_DOUBLE_EQ(out->column(1).doubles()[3], 80.0);
}

TEST(ProjectTest, WithSelection) {
  Table t = Orders();
  EvalContext ctx;
  SelVector sel{0, 4};
  std::vector<ProjectionItem> items = {{Expr::Col("id"), "id"},
                                       {Expr::Col("cust"), "cust"},
                                       {Expr::Col("amount"), "amount"}};
  auto out = ops::Project(t, items, ctx, &sel);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->GetRow(1)[0], Value(5));
}

Table Payments() {
  Table t(Schema({{"order_id", DataType::kInt64},
                  {"method", DataType::kString}}));
  EXPECT_TRUE(t.AppendRow({Value(1), Value("card")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(3), Value("cash")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(3), Value("card")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(9), Value("card")}).ok());
  return t;
}

TEST(JoinTest, HashJoinBasic) {
  Table orders = Orders();
  Table pay = Payments();
  auto m = ops::HashJoinIndices(orders, pay, {{"id", "order_id"}});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->left.size(), 3u);  // order 1 once, order 3 twice
  auto joined = ops::MaterializeJoin(orders, pay, *m);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 3u);
  EXPECT_EQ(joined->schema().num_fields(), 5u);
}

TEST(JoinTest, HashJoinNoMatches) {
  Table orders = Orders();
  Table pay(Schema({{"order_id", DataType::kInt64},
                    {"method", DataType::kString}}));
  ASSERT_TRUE(pay.AppendRow({Value(100), Value("card")}).ok());
  auto m = ops::HashJoinIndices(orders, pay, {{"id", "order_id"}});
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->left.empty());
}

TEST(JoinTest, NullKeysNeverMatch) {
  Table a(Schema({{"k", DataType::kInt64}}));
  ASSERT_TRUE(a.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(a.AppendRow({Value(1)}).ok());
  Table b(Schema({{"k2", DataType::kInt64}}));
  ASSERT_TRUE(b.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(b.AppendRow({Value(1)}).ok());
  auto m = ops::HashJoinIndices(a, b, {{"k", "k2"}});
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->left.size(), 1u);
  EXPECT_EQ(m->left[0], 1u);
  EXPECT_EQ(m->right[0], 1u);
}

TEST(JoinTest, SelfJoin) {
  Table orders = Orders();
  auto m = ops::HashJoinIndices(orders, orders, {{"cust", "cust"}});
  ASSERT_TRUE(m.ok());
  // ann:2 rows -> 4 pairs, bob:2 -> 4, cat:1 -> 1.
  EXPECT_EQ(m->left.size(), 9u);
}

TEST(JoinTest, CompositeKey) {
  Table a(Schema({{"x", DataType::kInt64}, {"y", DataType::kString}}));
  ASSERT_TRUE(a.AppendRow({Value(1), Value("p")}).ok());
  ASSERT_TRUE(a.AppendRow({Value(1), Value("q")}).ok());
  Table b(Schema({{"x2", DataType::kInt64}, {"y2", DataType::kString}}));
  ASSERT_TRUE(b.AppendRow({Value(1), Value("q")}).ok());
  auto m = ops::HashJoinIndices(a, b, {{"x", "x2"}, {"y", "y2"}});
  ASSERT_TRUE(m.ok());
  ASSERT_EQ(m->left.size(), 1u);
  EXPECT_EQ(m->left[0], 1u);
}

TEST(JoinTest, MaterializeRenamesCollisions) {
  Table orders = Orders();
  auto m = ops::HashJoinIndices(orders, orders, {{"id", "id"}});
  ASSERT_TRUE(m.ok());
  auto joined = ops::MaterializeJoin(orders, orders, *m);
  ASSERT_TRUE(joined.ok());
  EXPECT_GE(joined->schema().FindField("r_id"), 0);
  EXPECT_GE(joined->schema().FindField("r_cust"), 0);
}

TEST(JoinTest, ThetaJoinNestedLoop) {
  Table orders = Orders();
  Table pay = Payments();
  EvalContext ctx;
  // id < order_id : theta join.
  ExprPtr pred = Expr::Bin(BinaryOp::kLt, Expr::Col("id"), Expr::Col("order_id"));
  auto m = ops::NestedLoopJoin(orders, pay, *pred, ctx);
  ASSERT_TRUE(m.ok());
  // Count pairs manually: ids {1..5} vs order_ids {1,3,3,9}.
  // id=1: {3,3,9} -> 3; id=2: {3,3,9} -> 3; id=3: {9} -> 1; id=4: {9}; id=5: {9}.
  EXPECT_EQ(m->left.size(), 9u);
}

TEST(JoinTest, HashJoinWithResidual) {
  Table orders = Orders();
  Table pay = Payments();
  EvalContext ctx;
  ExprPtr residual =
      Expr::Bin(BinaryOp::kEq, Expr::Col("method"), Expr::Lit("card"));
  auto matches = ops::HashJoinIndices(orders, pay, {{"id", "order_id"}});
  ASSERT_TRUE(matches.ok());
  auto combined = ops::MaterializeJoin(orders, pay, *matches);
  ASSERT_TRUE(combined.ok());
  auto sel = EvalPredicate(*combined, *residual, ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 2u);
}

TEST(AggregateTest, GlobalAggregates) {
  Table t = Orders();
  EvalContext ctx;
  std::vector<AggItem> aggs = {
      {AggFunc::kCountStar, nullptr, "n"},
      {AggFunc::kSum, Expr::Col("amount"), "total"},
      {AggFunc::kAvg, Expr::Col("amount"), "mean"},
      {AggFunc::kMin, Expr::Col("amount"), "lo"},
      {AggFunc::kMax, Expr::Col("amount"), "hi"}};
  auto out = ops::Aggregate(t, {}, aggs, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetRow(0)[0], Value(int64_t{5}));
  EXPECT_EQ(out->GetRow(0)[1], Value(90.0));
  EXPECT_EQ(out->GetRow(0)[2], Value(18.0));
  EXPECT_EQ(out->GetRow(0)[3], Value(5.0));
  EXPECT_EQ(out->GetRow(0)[4], Value(40.0));
}

TEST(AggregateTest, EmptyInputGlobal) {
  Table t(Schema({{"x", DataType::kInt64}}));
  EvalContext ctx;
  std::vector<AggItem> aggs = {{AggFunc::kCountStar, nullptr, "n"},
                               {AggFunc::kSum, Expr::Col("x"), "s"}};
  auto out = ops::Aggregate(t, {}, aggs, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 1u);
  EXPECT_EQ(out->GetRow(0)[0], Value(int64_t{0}));
  EXPECT_TRUE(out->GetRow(0)[1].is_null());
}

TEST(AggregateTest, GroupBy) {
  Table t = Orders();
  EvalContext ctx;
  std::vector<GroupItem> groups = {{Expr::Col("cust"), "cust"}};
  std::vector<AggItem> aggs = {{AggFunc::kSum, Expr::Col("amount"), "total"},
                               {AggFunc::kCountStar, nullptr, "n"}};
  auto out = ops::Aggregate(t, groups, aggs, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3u);
  // First-seen order: ann, bob, cat.
  EXPECT_EQ(out->GetRow(0)[0], Value("ann"));
  EXPECT_EQ(out->GetRow(0)[1], Value(15.0));
  EXPECT_EQ(out->GetRow(1)[0], Value("bob"));
  EXPECT_EQ(out->GetRow(1)[1], Value(35.0));
  EXPECT_EQ(out->GetRow(2)[2], Value(int64_t{1}));
}

TEST(AggregateTest, CountSkipsNulls) {
  Table t(Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  EvalContext ctx;
  std::vector<AggItem> aggs = {{AggFunc::kCount, Expr::Col("x"), "c"},
                               {AggFunc::kCountStar, nullptr, "n"}};
  auto out = ops::Aggregate(t, {}, aggs, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetRow(0)[0], Value(int64_t{1}));
  EXPECT_EQ(out->GetRow(0)[1], Value(int64_t{2}));
}

TEST(AggregateTest, IntSumStaysInt) {
  Table t(Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(2)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(3)}).ok());
  EvalContext ctx;
  auto out =
      ops::Aggregate(t, {}, {{AggFunc::kSum, Expr::Col("x"), "s"}}, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->schema().field(0).type, DataType::kInt64);
  EXPECT_EQ(out->GetRow(0)[0], Value(int64_t{5}));
}

TEST(AggregateTest, GroupByExpression) {
  Table t = Orders();
  EvalContext ctx;
  std::vector<GroupItem> groups = {
      {Expr::Bin(BinaryOp::kMod, Expr::Col("id"), Expr::Lit(2)), "parity"}};
  auto out = ops::Aggregate(t, groups,
                            {{AggFunc::kCountStar, nullptr, "n"}}, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
}

TEST(SortTest, SingleKeyAscending) {
  Table t = Orders();
  EvalContext ctx;
  auto perm = ops::SortIndices(t, {{Expr::Col("amount"), true}}, ctx);
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(*perm, (SelVector{2, 0, 4, 1, 3}));
}

TEST(SortTest, DescendingAndSecondary) {
  Table t = Orders();
  EvalContext ctx;
  // cust desc, amount asc.
  auto sorted = ops::SortTable(
      t, {{Expr::Col("cust"), false}, {Expr::Col("amount"), true}}, ctx);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(sorted->GetRow(0)[1], Value("cat"));
  EXPECT_EQ(sorted->GetRow(1)[1], Value("bob"));
  EXPECT_EQ(sorted->GetRow(1)[2], Value(15.0));
}

TEST(SortTest, NullsFirstAscending) {
  Table t(Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(5)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  EvalContext ctx;
  auto perm = ops::SortIndices(t, {{Expr::Col("x"), true}}, ctx);
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(*perm, (SelVector{1, 2, 0}));
}

TEST(SortTest, StableOnTies) {
  Table t(Schema({{"k", DataType::kInt64}, {"i", DataType::kInt64}}));
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i % 2), Value(i)}).ok());
  }
  EvalContext ctx;
  auto perm = ops::SortIndices(t, {{Expr::Col("k"), true}}, ctx);
  ASSERT_TRUE(perm.ok());
  EXPECT_EQ(*perm, (SelVector{0, 2, 4, 1, 3, 5}));
}

TEST(SortTest, TopNWithAndWithoutKeys) {
  Table t = Orders();
  EvalContext ctx;
  auto top = ops::TopNIndices(t, {{Expr::Col("amount"), false}}, 2, ctx);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(*top, (SelVector{3, 1}));
  // No keys: arrival order.
  top = ops::TopNIndices(t, {}, 3, ctx);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(*top, (SelVector{0, 1, 2}));
  // n larger than table.
  top = ops::TopNIndices(t, {}, 100, ctx);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(top->size(), 5u);
}

TEST(JoinTest, MaterializeEmptyMatches) {
  Table orders = Orders();
  Table pay = Payments();
  auto joined = ops::MaterializeJoin(orders, pay, {});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->num_rows(), 0u);
  EXPECT_EQ(joined->schema().num_fields(),
            orders.num_columns() + pay.num_columns());
}

TEST(JoinTest, EmptyInputsYieldNoMatches) {
  Table empty(Orders().schema());
  Table pay = Payments();
  auto m = ops::HashJoinIndices(empty, pay, {{"id", "order_id"}});
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->left.empty());
  EvalContext ctx;
  auto nl = ops::NestedLoopJoin(empty, pay, *Expr::Lit(Value(true)), ctx);
  ASSERT_TRUE(nl.ok());
  EXPECT_TRUE(nl->left.empty());
}

TEST(JoinTest, MissingKeyColumnRejected) {
  Table orders = Orders();
  Table pay = Payments();
  EXPECT_FALSE(ops::HashJoinIndices(orders, pay, {{"nope", "order_id"}}).ok());
  EXPECT_FALSE(ops::HashJoinIndices(orders, pay, {}).ok());
}

TEST(JoinTest, PhysicalKeyTypeMismatchRejected) {
  Table a(Schema({{"k", DataType::kInt64}}));
  Table b(Schema({{"k2", DataType::kDouble}}));
  auto m = ops::HashJoinIndices(a, b, {{"k", "k2"}});
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kTypeMismatch);
}

TEST(ProjectTest, EmptyInputKeepsSchema) {
  Table t(Orders().schema());
  EvalContext ctx;
  auto out = ops::Project(
      t, {{Expr::Bin(BinaryOp::kMul, Expr::Col("amount"), Expr::Lit(2)), "d"}},
      ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
  EXPECT_EQ(out->schema().field(0).type, DataType::kDouble);
}

TEST(AggregateTest, MinMaxOverStrings) {
  Table t = Orders();
  EvalContext ctx;
  auto out = ops::Aggregate(t, {},
                            {{AggFunc::kMin, Expr::Col("cust"), "lo"},
                             {AggFunc::kMax, Expr::Col("cust"), "hi"}},
                            ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetRow(0)[0], Value("ann"));
  EXPECT_EQ(out->GetRow(0)[1], Value("cat"));
}

TEST(AggregateTest, SumOfStringsRejected) {
  Table t = Orders();
  EvalContext ctx;
  auto out =
      ops::Aggregate(t, {}, {{AggFunc::kSum, Expr::Col("cust"), "s"}}, ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kTypeMismatch);
}

TEST(AggregateTest, NullGroupKeysFormAGroup) {
  Table t(Schema({{"g", DataType::kInt64}, {"v", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value(1)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(7), Value(2)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null(), Value(3)}).ok());
  EvalContext ctx;
  auto out = ops::Aggregate(t, {{Expr::Col("g"), "g"}},
                            {{AggFunc::kSum, Expr::Col("v"), "s"}}, ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  // First-seen order: the NULL group first with sum 4.
  EXPECT_TRUE(out->GetRow(0)[0].is_null());
  EXPECT_EQ(out->GetRow(0)[1], Value(int64_t{4}));
}

// --- Integer-key group ids vs the encoded-key map ----------------------------

// Grouping on `k` alone takes the int64 group-id table; grouping on `k`
// plus a constant takes the encoded-key map over the same rows. Every
// output column but the constant must be byte-identical.
void ExpectIntKeyMatchesEncodedKey(const Table& t,
                                   const std::vector<AggItem>& aggs) {
  EvalContext ctx;
  auto fast = ops::Aggregate(t, {{Expr::Col("k"), "k"}}, aggs, ctx);
  auto slow = ops::Aggregate(
      t, {{Expr::Col("k"), "k"}, {Expr::Lit(1), "one"}}, aggs, ctx);
  ASSERT_TRUE(fast.ok()) << fast.status().ToString();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_EQ(fast->num_rows(), slow->num_rows());
  ASSERT_EQ(fast->num_columns() + 1, slow->num_columns());
  for (size_t c = 0; c < fast->num_columns(); ++c) {
    const Column& f = fast->column(c);
    const Column& s = slow->column(c == 0 ? 0 : c + 1);
    ASSERT_EQ(f.type(), s.type()) << "column " << c;
    ASSERT_EQ(f.has_nulls(), s.has_nulls()) << "column " << c;
    for (size_t r = 0; r < f.size(); ++r) {
      EXPECT_EQ(f.GetValue(r), s.GetValue(r)) << "column " << c << " row " << r;
    }
    if (f.type() == DataType::kDouble && f.size() > 0) {
      EXPECT_EQ(std::memcmp(f.doubles().data(), s.doubles().data(),
                            f.size() * sizeof(double)),
                0);
    }
  }
}

std::vector<AggItem> AllAggs() {
  return {{AggFunc::kCountStar, nullptr, "n"},
          {AggFunc::kCount, Expr::Col("v"), "c"},
          {AggFunc::kSum, Expr::Col("v"), "s"},
          {AggFunc::kAvg, Expr::Col("v"), "a"},
          {AggFunc::kMin, Expr::Col("v"), "lo"},
          {AggFunc::kMax, Expr::Col("v"), "hi"},
          {AggFunc::kSum, Expr::Col("d"), "sd"},
          {AggFunc::kMin, Expr::Col("d"), "lod"},
          {AggFunc::kMax, Expr::Col("name"), "hin"}};
}

Table KeyedRows(DataType key_type, size_t n, uint64_t seed) {
  Table t(Schema({{"k", key_type},
                  {"v", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"name", DataType::kString}}));
  Random rng(seed);
  for (size_t i = 0; i < n; ++i) {
    // Keys spread over a few thousand values (negative ones and the int64
    // edges too) so the table grows and probes collide; ~1 in 9 keys and
    // ~1 in 7 arguments NULL.
    Value k = Value(static_cast<int64_t>(rng.Uniform(5000)) - 2500);
    if (i % 9 == 4) k = Value::Null();
    if (i % 101 == 3) k = Value(std::numeric_limits<int64_t>::min());
    if (i % 103 == 5) k = Value(std::numeric_limits<int64_t>::max());
    const Value v =
        i % 7 == 2 ? Value::Null()
                   : Value(static_cast<int64_t>(rng.Uniform(1000)) - 500);
    EXPECT_TRUE(t.AppendRow({k, v, Value(static_cast<double>(i % 13) * 0.25),
                             Value("n" + std::to_string(i % 17))})
                    .ok());
  }
  return t;
}

TEST(IntKeyGroupByTest, MatchesEncodedKeyPath) {
  for (DataType kt : {DataType::kInt64, DataType::kTimestamp}) {
    ExpectIntKeyMatchesEncodedKey(KeyedRows(kt, 20000, 11), AllAggs());
  }
}

// More distinct keys than the table's initial 2^16 slots hold at half
// load: the table grows (twice) mid-batch and keeps every id.
TEST(IntKeyGroupByTest, ManyDistinctKeysGrowTheTable) {
  Table t(Schema({{"k", DataType::kInt64},
                  {"v", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"name", DataType::kString}}));
  for (int64_t i = 0; i < 70000; ++i) {
    // Strided keys with repeats, so later rows hit groups made before a
    // grow.
    const int64_t k = (i % 50000) * 7919 - 123456789;
    ASSERT_TRUE(
        t.AppendRow({Value(k), Value(i), Value(0.5), Value("x")}).ok());
  }
  ExpectIntKeyMatchesEncodedKey(t, AllAggs());
}

TEST(IntKeyGroupByTest, EmptyInput) {
  ExpectIntKeyMatchesEncodedKey(KeyedRows(DataType::kInt64, 0, 1), AllAggs());
  EvalContext ctx;
  auto out = ops::Aggregate(KeyedRows(DataType::kInt64, 0, 1),
                            {{Expr::Col("k"), "k"}}, AllAggs(), ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
  EXPECT_EQ(out->num_columns(), 1 + AllAggs().size());
}

TEST(IntKeyGroupByTest, FirstSeenOrderNullGroupAndNullArguments) {
  Table t(Schema({{"k", DataType::kInt64},
                  {"v", DataType::kInt64},
                  {"d", DataType::kDouble},
                  {"name", DataType::kString}}));
  const std::vector<Row> rows = {
      {Value(30), Value(1), Value(0.5), Value("b")},
      {Value::Null(), Value(2), Value(1.5), Value("a")},
      {Value(-4), Value::Null(), Value::Null(), Value::Null()},
      {Value(30), Value(4), Value(2.5), Value("c")},
      {Value::Null(), Value::Null(), Value(3.5), Value("z")},
      {Value(7), Value(8), Value(4.5), Value("a")}};
  for (const Row& r : rows) ASSERT_TRUE(t.AppendRow(r).ok());
  ExpectIntKeyMatchesEncodedKey(t, AllAggs());

  EvalContext ctx;
  auto out = ops::Aggregate(t, {{Expr::Col("k"), "k"}}, AllAggs(), ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 4u);
  // Keys in first-seen order, the NULL key a group of its own.
  EXPECT_EQ(out->GetRow(0)[0], Value(30));
  EXPECT_TRUE(out->GetRow(1)[0].is_null());
  EXPECT_EQ(out->GetRow(2)[0], Value(-4));
  EXPECT_EQ(out->GetRow(3)[0], Value(7));
  // Group 30: count(*) 2, count(v) 2, sum 5, avg 2.5, min 1, max 4.
  const Row g30 = out->GetRow(0);
  EXPECT_EQ(g30[1], Value(int64_t{2}));
  EXPECT_EQ(g30[2], Value(int64_t{2}));
  EXPECT_EQ(g30[3], Value(int64_t{5}));
  EXPECT_EQ(g30[4], Value(2.5));
  EXPECT_EQ(g30[5], Value(int64_t{1}));
  EXPECT_EQ(g30[6], Value(int64_t{4}));
  EXPECT_EQ(g30[9], Value("c"));
  // NULL group: the NULL argument is skipped.
  const Row gnull = out->GetRow(1);
  EXPECT_EQ(gnull[1], Value(int64_t{2}));
  EXPECT_EQ(gnull[2], Value(int64_t{1}));
  EXPECT_EQ(gnull[3], Value(int64_t{2}));
  EXPECT_EQ(gnull[7], Value(5.0));
  // Group -4 folded only NULL arguments: count 0, everything else NULL.
  const Row gm4 = out->GetRow(2);
  EXPECT_EQ(gm4[1], Value(int64_t{1}));
  EXPECT_EQ(gm4[2], Value(int64_t{0}));
  for (size_t c = 3; c < gm4.size(); ++c) EXPECT_TRUE(gm4[c].is_null()) << c;
}

TEST(IntKeyGroupByTest, IntegerSumWrapsInsteadOfOverflowing) {
  Table t(Schema({{"k", DataType::kInt64}, {"v", DataType::kInt64}}));
  const int64_t max = std::numeric_limits<int64_t>::max();
  ASSERT_TRUE(t.AppendRow({Value(1), Value(max)}).ok());
  ASSERT_TRUE(t.AppendRow({Value(1), Value(2)}).ok());
  EvalContext ctx;
  auto out = ops::Aggregate(t, {{Expr::Col("k"), "k"}},
                            {{AggFunc::kSum, Expr::Col("v"), "s"}}, ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->GetRow(0)[1],
            Value(std::numeric_limits<int64_t>::min() + 1));
}

TEST(DeleteTest, EraseMatchingRows) {
  Table t = Orders();
  EvalContext ctx;
  auto sel = EvalPredicate(
      t, *Expr::Bin(BinaryOp::kEq, Expr::Col("cust"), Expr::Lit("bob")), ctx);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->size(), 2u);
  ASSERT_TRUE(t.EraseRows(*sel).ok());
  EXPECT_EQ(t.num_rows(), 3u);
  // Remaining ids: 1, 3, 4.
  EXPECT_EQ(t.GetRow(2)[0], Value(4));
}

// ---------------------------------------------------------------------------
// Vectorized kernel layer (DESIGN.md §12). The determinism contract says
// every backend × dispatch combination produces byte-identical output, so
// these tests run each input through the forced-scalar path, the active
// SIMD path and the SIMD+morsel path and compare results bit-for-bit.

Column RandomIntColumn(size_t n, uint32_t mod, uint64_t seed) {
  Random rng(seed);
  Column c(DataType::kInt64);
  c.ints().reserve(n);
  for (size_t i = 0; i < n; ++i) {
    c.AppendInt(static_cast<int64_t>(rng.Uniform(mod)));
  }
  return c;
}

Column RandomDoubleColumn(size_t n, uint64_t seed) {
  Random rng(seed);
  Column c(DataType::kDouble);
  c.doubles().reserve(n);
  for (size_t i = 0; i < n; ++i) {
    c.AppendDouble(static_cast<double>(rng.Uniform(1u << 20)) * 0.25);
  }
  return c;
}

// Bitwise equality for FoldState: double fields must match to the bit,
// not just compare equal (that is the byte-identity guarantee).
void ExpectFoldBitsEq(const simd::FoldState& a, const simd::FoldState& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.isum, b.isum);
  EXPECT_EQ(a.seen, b.seen);
  EXPECT_EQ(a.imin, b.imin);
  EXPECT_EQ(a.imax, b.imax);
  EXPECT_EQ(std::memcmp(&a.dsum, &b.dsum, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.dmin, &b.dmin, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.dmax, &b.dmax, sizeof(double)), 0);
}

TEST(VectorizedKernelTest, EmptyColumn) {
  Column i(DataType::kInt64);
  Column d(DataType::kDouble);
  EXPECT_TRUE(ops::kern::SelectCmpI64Col(i, simd::Cmp::kLt, 5).empty());
  EXPECT_TRUE(ops::kern::SelectRangeF64Col(d, 0.0, true, 1.0, true).empty());
  const simd::FoldState f = ops::kern::FoldNumeric(i);
  EXPECT_EQ(f.count, 0u);
  EXPECT_FALSE(f.seen);
}

TEST(VectorizedKernelTest, AllPassAndNonePass) {
  const size_t n = 2 * ops::kMorselRows + 7;  // spans a morsel boundary
  Column c = RandomIntColumn(n, 1000, 11);
  const SelVector all = ops::kern::SelectCmpI64Col(c, simd::Cmp::kLt, 1000);
  ASSERT_EQ(all.size(), n);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(all[i], static_cast<uint32_t>(i));
  EXPECT_TRUE(ops::kern::SelectCmpI64Col(c, simd::Cmp::kGe, 1000).empty());
}

TEST(VectorizedKernelTest, MorselBoundarySizesMatchScalar) {
  for (const size_t n :
       {ops::kMorselRows - 1, ops::kMorselRows, ops::kMorselRows + 1,
        2 * ops::kMorselRows - 1, 2 * ops::kMorselRows,
        2 * ops::kMorselRows + 1}) {
    Column ic = RandomIntColumn(n, 10000, n);
    Column dc = RandomDoubleColumn(n, n + 1);

    simd::SetForceScalar(true);
    const SelVector sel_s = ops::kern::SelectCmpI64Col(ic, simd::Cmp::kLt, 5000);
    const SelVector rng_s = ops::kern::SelectRangeF64Col(dc, 100.0, true,
                                                         200000.0, false);
    const simd::FoldState fold_s = ops::kern::FoldNumeric(dc);
    simd::SetForceScalar(false);

    const SelVector sel_v = ops::kern::SelectCmpI64Col(ic, simd::Cmp::kLt, 5000);
    const SelVector rng_v = ops::kern::SelectRangeF64Col(dc, 100.0, true,
                                                         200000.0, false);
    const simd::FoldState fold_v = ops::kern::FoldNumeric(dc);

    EXPECT_EQ(sel_s, sel_v) << "n=" << n;
    EXPECT_EQ(rng_s, rng_v) << "n=" << n;
    ExpectFoldBitsEq(fold_s, fold_v);
  }
}

TEST(VectorizedKernelTest, UnalignedHeadAfterErasePrefix) {
  const size_t n = ops::kMorselRows + 513;
  Column c = RandomIntColumn(n, 10000, 77);
  // Consuming a prefix advances the logical head: View() now points into
  // the middle of the allocation, so vector loads see an unaligned base.
  c.ErasePrefix(3);
  ASSERT_EQ(c.size(), n - 3);

  simd::SetForceScalar(true);
  const SelVector sel_s = ops::kern::SelectCmpI64Col(c, simd::Cmp::kGe, 5000);
  const simd::FoldState fold_s = ops::kern::FoldNumeric(c);
  simd::SetForceScalar(false);
  const SelVector sel_v = ops::kern::SelectCmpI64Col(c, simd::Cmp::kGe, 5000);
  const simd::FoldState fold_v = ops::kern::FoldNumeric(c);

  EXPECT_EQ(sel_s, sel_v);
  ExpectFoldBitsEq(fold_s, fold_v);
  // Spot-check against the row-at-a-time view of the same column.
  SelVector expected;
  for (size_t i = 0; i < c.size(); ++i) {
    if (c.ints()[i] >= 5000) expected.push_back(static_cast<uint32_t>(i));
  }
  EXPECT_EQ(sel_v, expected);
}

TEST(VectorizedKernelTest, MorselDispatchIsByteIdentical) {
  const size_t n = 3 * ops::kMorselRows + 1;
  Column ic = RandomIntColumn(n, 10000, 5);
  Column dc = RandomDoubleColumn(n, 6);
  std::vector<int64_t> keys(ic.ints().data(), ic.ints().data() + n);

  simd::SetForceScalar(true);
  const SelVector sel_s = ops::kern::SelectCmpI64Col(ic, simd::Cmp::kLt, 5000);
  const simd::FoldState fold_s = ops::kern::FoldNumeric(dc);
  std::vector<uint64_t> hash_s;
  ops::kern::HashI64Span(keys.data(), n, &hash_s);
  simd::SetForceScalar(false);

  ops::PoolMorselExecutor pool(2);
  ops::ScopedMorselExecutor scoped(&pool);
  const SelVector sel_m = ops::kern::SelectCmpI64Col(ic, simd::Cmp::kLt, 5000);
  const simd::FoldState fold_m = ops::kern::FoldNumeric(dc);
  std::vector<uint64_t> hash_m;
  ops::kern::HashI64Span(keys.data(), n, &hash_m);

  EXPECT_EQ(sel_s, sel_m);
  ExpectFoldBitsEq(fold_s, fold_m);
  EXPECT_EQ(hash_s, hash_m);
}

TEST(VectorizedKernelTest, NullsRouteToValidityAwarePath) {
  Column c(DataType::kInt64);
  for (int i = 0; i < 100; ++i) {
    if (i % 7 == 0) {
      c.AppendNull();
    } else {
      c.AppendInt(i);
    }
  }
  const SelVector sel = ops::kern::SelectCmpI64Col(c, simd::Cmp::kGe, 50);
  for (uint32_t r : sel) {
    EXPECT_TRUE(c.IsValid(r));
    EXPECT_GE(c.ints()[r], 50);
  }
  const simd::FoldState f = ops::kern::FoldNumeric(c);
  EXPECT_EQ(f.count, 85u);  // 15 of 100 are null
}

// A writer keeps appending to the live column while pool workers run
// morselized kernels over a COW snapshot taken beforehand. The snapshot
// pins the old buffer, so the readers' results must stay stable and the
// run must be race-free under TSan.
TEST(VectorizedKernelTest, ConcurrentMorselReadersVsSnapshotWriter) {
  const size_t n = 2 * ops::kMorselRows;
  Column live = RandomIntColumn(n, 10000, 21);
  Column snapshot = live;  // COW: shares the buffer until the writer detaches

  const SelVector expected =
      ops::kern::SelectCmpI64Col(snapshot, simd::Cmp::kLt, 5000);
  const simd::FoldState expected_fold = ops::kern::FoldNumeric(snapshot);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      live.AppendInt(1);  // first append detaches from the snapshot
    }
  });

  {
    ops::PoolMorselExecutor pool(2);
    ops::ScopedMorselExecutor scoped(&pool);
    for (int round = 0; round < 20; ++round) {
      const SelVector sel =
          ops::kern::SelectCmpI64Col(snapshot, simd::Cmp::kLt, 5000);
      EXPECT_EQ(sel, expected);
      ExpectFoldBitsEq(ops::kern::FoldNumeric(snapshot), expected_fold);
    }
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(live.size(), n);
}

// --- Recycled buffers ---------------------------------------------------------

// Every value and validity byte of two tables, compared as raw bytes.
void ExpectTablesByteIdentical(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_columns(), b.num_columns());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const Column& x = a.column(c);
    const Column& y = b.column(c);
    ASSERT_EQ(x.type(), y.type()) << "column " << c;
    ASSERT_EQ(x.has_nulls(), y.has_nulls()) << "column " << c;
    const size_t n = x.size();
    if (x.has_nulls()) {
      EXPECT_EQ(std::memcmp(x.raw_validity(), y.raw_validity(), n), 0);
    }
    switch (x.type()) {
      case DataType::kInt64:
      case DataType::kTimestamp:
        EXPECT_EQ(std::memcmp(x.ints().data(), y.ints().data(), n * 8), 0);
        break;
      case DataType::kDouble:
        EXPECT_EQ(std::memcmp(x.doubles().data(), y.doubles().data(), n * 8),
                  0);
        break;
      case DataType::kBool:
        EXPECT_EQ(std::memcmp(x.bools().data(), y.bools().data(), n), 0);
        break;
      case DataType::kString:
        EXPECT_TRUE(x.strings() == y.strings());
        break;
    }
  }
}

// One bulk firing's worth of kernels over `t`: a filter with an arithmetic
// residual, then a group-by over the survivors.
Table FilterThenGroup(const Table& t) {
  EvalContext ctx;
  const ExprPtr pred = Expr::Bin(
      BinaryOp::kAnd, Expr::Bin(BinaryOp::kGe, Expr::Col("v"), Expr::Lit(-400)),
      Expr::Bin(BinaryOp::kNe,
                Expr::Bin(BinaryOp::kMod, Expr::Col("v"), Expr::Lit(8)),
                Expr::Lit(3)));
  Result<SelVector> sel = EvalPredicate(t, *pred, ctx);
  EXPECT_TRUE(sel.ok()) << sel.status().ToString();
  const Table survivors = t.Take(*sel);
  Result<Table> grouped =
      ops::Aggregate(survivors, {{Expr::Col("k"), "k"}}, AllAggs(), ctx);
  EXPECT_TRUE(grouped.ok()) << grouped.status().ToString();
  return grouped.ok() ? *grouped : Table();
}

// The second run draws every large buffer the first one parked: its output
// must be byte-identical, serially and on a morsel pool.
TEST(RecycledBufferTest, RepeatedBulkFiringsAreByteIdentical) {
  const Table t = KeyedRows(DataType::kInt64, 4 * ops::kMorselRows, 29);
  ASSERT_GE(t.num_rows(), 131072u);
  const Table serial_first = FilterThenGroup(t);
  const Table serial_second = FilterThenGroup(t);
  ASSERT_GT(serial_first.num_rows(), 0u);
  ExpectTablesByteIdentical(serial_first, serial_second);

  ops::PoolMorselExecutor pool(3);
  ops::ScopedMorselExecutor scoped(&pool);
  const Table pooled_first = FilterThenGroup(t);
  const Table pooled_second = FilterThenGroup(t);
  ExpectTablesByteIdentical(serial_first, pooled_first);
  ExpectTablesByteIdentical(serial_first, pooled_second);
}

// One AggregateState carried through a sequence of calls (a standing
// group-by's deliveries) gives, call by call, the bytes a stateless call
// gives: 3000 distinct keys, 2 keys, NULL keys, a two-column key, a
// 131072-row call and an 8-row one, each with and without a selection.
// States carried on a three-worker morsel pool and with the scalar
// kernels give the same bytes. After the bulk call no large buffer stays
// in any state.
TEST(AggregateStateTest, StateCarriedAcrossCallsMatchesFreshCalls) {
  EvalContext ctx;
  const std::vector<GroupItem> one = {{Expr::Col("k"), "k"}};
  const std::vector<GroupItem> two = {{Expr::Col("k"), "k"},
                                      {Expr::Col("v"), "v"}};
  auto distinct = [] {
    Table t = KeyedRows(DataType::kInt64, 3000, 5);
    for (size_t i = 0; i < t.num_rows(); ++i) {
      t.column(0).ints()[i] = static_cast<int64_t>(i);
    }
    return t;
  };
  auto few = [] {
    Table t = KeyedRows(DataType::kInt64, 8, 6);
    for (size_t i = 0; i < t.num_rows(); ++i) {
      t.column(0).ints()[i] = static_cast<int64_t>(i % 2);
    }
    return t;
  };
  const std::vector<Table> calls = {distinct(),
                                    few(),
                                    KeyedRows(DataType::kInt64, 40, 7),
                                    KeyedRows(DataType::kInt64, 131072, 8),
                                    KeyedRows(DataType::kInt64, 8, 9)};
  for (const auto* groups : {&one, &two, static_cast<const std::vector<GroupItem>*>(nullptr)}) {
    const std::vector<GroupItem> g = groups == nullptr ? std::vector<GroupItem>{}
                                                       : *groups;
    ops::AggregateState state;
    ops::AggregateState state_sel;
    ops::AggregateState state_pool;
    ops::AggregateState state_scalar;
    for (const Table& t : calls) {
      SelVector odd;
      for (uint32_t i = 1; i < t.num_rows(); i += 2) odd.push_back(i);
      auto fresh = ops::Aggregate(t, g, AllAggs(), ctx);
      auto kept = ops::Aggregate(t, g, AllAggs(), ctx, nullptr, &state);
      ASSERT_TRUE(fresh.ok() && kept.ok()) << fresh.status().ToString();
      ExpectTablesByteIdentical(*kept, *fresh);
      auto fresh_sel = ops::Aggregate(t.Take(odd), g, AllAggs(), ctx);
      auto kept_sel = ops::Aggregate(t, g, AllAggs(), ctx, &odd, &state_sel);
      ASSERT_TRUE(fresh_sel.ok() && kept_sel.ok());
      ExpectTablesByteIdentical(*kept_sel, *fresh_sel);
      {
        ops::PoolMorselExecutor pool(3);
        ops::ScopedMorselExecutor scoped(&pool);
        auto pooled = ops::Aggregate(t, g, AllAggs(), ctx, nullptr, &state_pool);
        ASSERT_TRUE(pooled.ok());
        ExpectTablesByteIdentical(*pooled, *fresh);
      }
      simd::SetForceScalar(true);
      auto scalar = ops::Aggregate(t, g, AllAggs(), ctx, &odd, &state_scalar);
      simd::SetForceScalar(false);
      ASSERT_TRUE(scalar.ok());
      ExpectTablesByteIdentical(*scalar, *fresh_sel);
      for (const ops::AggregateState* st :
           {&state, &state_sel, &state_pool, &state_scalar}) {
        EXPECT_LT(st->row_group.capacity() * sizeof(uint32_t),
                  recycler::kMinBytes);
        EXPECT_LT(st->slot_keys.capacity() * sizeof(int64_t),
                  recycler::kMinBytes);
        for (const Column& c : st->outs) EXPECT_FALSE(c.Large());
      }
    }
  }
}

// A projection with state resolves bare columns once per input schema,
// reads a selection, falls back to evaluation for a name that is a
// session variable, and resolves again when the input schema changes.
TEST(ProjectStateTest, ResolvesOncePerSchemaAndFallsBackForVariables) {
  Table t = Orders();
  std::map<std::string, Value> vars = {{"lim", Value(7)}};
  EvalContext ctx;
  ctx.variables = &vars;
  const std::vector<ProjectionItem> bare = {{Expr::Col("amount"), "amount"},
                                            {Expr::Col("id"), "id"}};
  ops::ProjectState state;
  SelVector sel{1, 3};
  for (int round = 0; round < 2; ++round) {
    auto kept = ops::Project(t, bare, ctx, &sel, &state);
    auto fresh = ops::Project(t.Take(sel), bare, ctx);
    ASSERT_TRUE(kept.ok() && fresh.ok());
    ExpectTablesByteIdentical(*kept, *fresh);
    EXPECT_EQ(kept->schema(), fresh->schema());
    EXPECT_EQ(state.positions, (std::vector<size_t>{2, 0}));
  }
  const std::vector<ProjectionItem> with_var = {{Expr::Col("id"), "id"},
                                                {Expr::Col("lim"), "lim"}};
  ops::ProjectState var_state;
  auto out = ops::Project(t, with_var, ctx, &sel, &var_state);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_TRUE(var_state.positions.empty());
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->GetRow(0)[1], Value(7));
  // Another field list (a rebuilt schema with the columns reordered):
  // positions follow it.
  Table swapped(Schema({{"amount", DataType::kDouble},
                        {"cust", DataType::kString},
                        {"id", DataType::kInt64}}),
                {t.column(2), t.column(1), t.column(0)});
  auto again = ops::Project(swapped, bare, ctx, nullptr, &state);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(state.positions, (std::vector<size_t>{0, 2}));
  ExpectTablesByteIdentical(*again, *ops::Project(t, bare, ctx));
}

}  // namespace
}  // namespace datacell
