#include <gtest/gtest.h>

#include "core/basket.h"
#include "core/basket_expression.h"

namespace datacell::core {
namespace {

Schema StreamSchema() {
  return Schema({{"tag", DataType::kTimestamp}, {"payload", DataType::kInt64}});
}

Table MakeBatch(std::initializer_list<int64_t> payloads, Micros tag = 0) {
  Table t(StreamSchema());
  for (int64_t p : payloads) {
    EXPECT_TRUE(t.AppendRow({Value(tag), Value(p)}).ok());
  }
  return t;
}

TEST(BasketTest, SchemaGainsArrivalColumn) {
  Basket b("s", StreamSchema());
  EXPECT_TRUE(b.has_arrival_column());
  EXPECT_EQ(b.schema().num_fields(), 3u);
  EXPECT_GE(b.schema().FindField(kArrivalColumn), 0);
}

TEST(BasketTest, OptOutOfArrivalColumn) {
  Basket b("s", StreamSchema(), /*add_arrival_ts=*/false);
  EXPECT_FALSE(b.has_arrival_column());
  EXPECT_EQ(b.schema().num_fields(), 2u);
}

TEST(BasketTest, AppendStampsArrival) {
  Basket b("s", StreamSchema());
  auto n = b.Append(MakeBatch({1, 2}), /*now=*/777);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  Table peek = b.Peek();
  auto col = peek.GetColumn(kArrivalColumn);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->ints()[0], 777);
  EXPECT_EQ((*col)->ints()[1], 777);
}

TEST(BasketTest, AppendArityChecked) {
  Basket b("s", StreamSchema());
  Table bad(Schema({{"x", DataType::kInt64}}));
  ASSERT_TRUE(bad.AppendRow({Value(1)}).ok());
  EXPECT_EQ(b.Append(bad, 0).status().code(), StatusCode::kTypeMismatch);
}

TEST(BasketTest, DisabledBasketDropsSilently) {
  Basket b("s", StreamSchema());
  b.Disable();
  auto n = b.Append(MakeBatch({1}), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.stats().dropped, 1u);
  b.Enable();
  n = b.Append(MakeBatch({2}), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
}

TEST(BasketTest, IntegrityConstraintSilentFilter) {
  Basket b("s", StreamSchema());
  // Only non-negative payloads are structurally valid events.
  b.AddConstraint(Expr::Bin(BinaryOp::kGe, Expr::Col("payload"), Expr::Lit(0)));
  auto n = b.Append(MakeBatch({5, -3, 7}), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(b.size(), 2u);
  auto stats = b.stats();
  EXPECT_EQ(stats.appended, 2u);
  EXPECT_EQ(stats.dropped, 1u);
}

TEST(BasketTest, MultipleConstraintsConjoin) {
  Basket b("s", StreamSchema());
  b.AddConstraint(Expr::Bin(BinaryOp::kGe, Expr::Col("payload"), Expr::Lit(0)));
  b.AddConstraint(Expr::Bin(BinaryOp::kLt, Expr::Col("payload"), Expr::Lit(10)));
  auto n = b.Append(MakeBatch({-1, 5, 20}), 0);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
}

TEST(BasketTest, TakeAllEmptiesAndCounts) {
  Basket b("s", StreamSchema());
  ASSERT_TRUE(b.Append(MakeBatch({1, 2, 3}), 0).ok());
  Table all = b.TakeAll();
  EXPECT_EQ(all.num_rows(), 3u);
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.stats().consumed, 3u);
}

TEST(BasketTest, TakeRowsRemovesSelected) {
  Basket b("s", StreamSchema());
  ASSERT_TRUE(b.Append(MakeBatch({10, 20, 30, 40}), 0).ok());
  auto taken = b.TakeRows({1, 3});
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken->num_rows(), 2u);
  EXPECT_EQ(taken->GetRow(0)[1], Value(20));
  EXPECT_EQ(b.size(), 2u);
  Table rest = b.Peek();
  EXPECT_EQ(rest.GetRow(0)[1], Value(10));
  EXPECT_EQ(rest.GetRow(1)[1], Value(30));
}

TEST(BasketTest, ErasePrefix) {
  Basket b("s", StreamSchema());
  ASSERT_TRUE(b.Append(MakeBatch({1, 2, 3}), 0).ok());
  ASSERT_TRUE(b.ErasePrefix(2).ok());
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(b.Peek().GetRow(0)[1], Value(3));
  // Larger than size clamps.
  ASSERT_TRUE(b.ErasePrefix(10).ok());
  EXPECT_EQ(b.size(), 0u);
}

TEST(BasketTest, AppendRowConvenience) {
  Basket b("s", StreamSchema());
  ASSERT_TRUE(b.AppendRow({Value(int64_t{5}), Value(9)}, 123).ok());
  EXPECT_EQ(b.size(), 1u);
}

TEST(BasketExprTest, SelectAllConsumesBatch) {
  auto b = std::make_shared<Basket>("s", StreamSchema());
  ASSERT_TRUE(b->Append(MakeBatch({1, 2, 3}), 0).ok());
  BasketExpression be(b);
  be.Consume(ConsumePolicy::kBatch);
  EvalContext ctx;
  auto out = be.Evaluate(ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 3u);
  EXPECT_EQ(b->size(), 0u);
}

TEST(BasketExprTest, PredicateWindowConsumesMatchedOnly) {
  auto b = std::make_shared<Basket>("s", StreamSchema());
  ASSERT_TRUE(b->Append(MakeBatch({1, 8, 3, 9}), 0).ok());
  BasketExpression be(b);
  be.Where(Expr::Bin(BinaryOp::kGt, Expr::Col("payload"), Expr::Lit(5)));
  be.Consume(ConsumePolicy::kMatched);
  EvalContext ctx;
  auto out = be.Evaluate(ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 2u);
  // Non-matching tuples remain (partially emptied basket).
  EXPECT_EQ(b->size(), 2u);
  EXPECT_EQ(b->Peek().GetRow(0)[1], Value(1));
  EXPECT_EQ(b->Peek().GetRow(1)[1], Value(3));
}

TEST(BasketExprTest, TopNWaitsForFullWindow) {
  auto b = std::make_shared<Basket>("s", StreamSchema());
  ASSERT_TRUE(b->Append(MakeBatch({3, 1}), 0).ok());
  BasketExpression be(b);
  be.Top(3).OrderBy({{Expr::Col("payload"), true}});
  EvalContext ctx;
  // Window incomplete: nothing returned, nothing consumed.
  auto out = be.Evaluate(ctx);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_rows(), 0u);
  EXPECT_EQ(b->size(), 2u);
  EXPECT_EQ(be.MinTuples(), 3u);
  // Third tuple completes the window.
  ASSERT_TRUE(b->Append(MakeBatch({2}), 0).ok());
  out = be.Evaluate(ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3u);
  EXPECT_EQ(out->GetRow(0)[1], Value(1));
  EXPECT_EQ(out->GetRow(1)[1], Value(2));
  EXPECT_EQ(out->GetRow(2)[1], Value(3));
  EXPECT_EQ(b->size(), 0u);
}

TEST(BasketExprTest, TopNInArrivalOrder) {
  auto b = std::make_shared<Basket>("s", StreamSchema());
  ASSERT_TRUE(b->Append(MakeBatch({9, 8, 7, 6}), 0).ok());
  BasketExpression be(b);
  be.Top(2);
  EvalContext ctx;
  auto out = be.Evaluate(ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 2u);
  EXPECT_EQ(out->GetRow(0)[1], Value(9));
  EXPECT_EQ(out->GetRow(1)[1], Value(8));
  // Exactly the two consumed tuples left the basket.
  EXPECT_EQ(b->size(), 2u);
}

TEST(BasketExprTest, OrderByWithoutTopSortsWindow) {
  auto b = std::make_shared<Basket>("s", StreamSchema());
  ASSERT_TRUE(b->Append(MakeBatch({5, 1, 3}), 0).ok());
  BasketExpression be(b);
  be.OrderBy({{Expr::Col("payload"), false}}).Consume(ConsumePolicy::kBatch);
  EvalContext ctx;
  auto out = be.Evaluate(ctx);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->num_rows(), 3u);
  EXPECT_EQ(out->GetRow(0)[1], Value(5));
  EXPECT_EQ(out->GetRow(2)[1], Value(1));
  EXPECT_EQ(b->size(), 0u);
}

TEST(BasketCapacityTest, CreditAndWatermarks) {
  Basket b("s", StreamSchema());
  // Unbounded by default.
  EXPECT_EQ(b.capacity(), 0u);
  EXPECT_EQ(b.CreditRemaining(), SIZE_MAX);
  EXPECT_TRUE(b.Drained());

  b.SetCapacity(10);  // low watermark defaults to high/2
  EXPECT_EQ(b.capacity(), 10u);
  EXPECT_EQ(b.low_watermark(), 5u);
  ASSERT_TRUE(b.Append(MakeBatch({1, 2, 3, 4, 5, 6, 7}), 0).ok());
  EXPECT_EQ(b.CreditRemaining(), 3u);
  EXPECT_FALSE(b.Drained());  // 7 > low watermark

  ASSERT_TRUE(b.Append(MakeBatch({8, 9, 10, 11, 12}), 0).ok());
  EXPECT_EQ(b.size(), 12u);  // cooperative bound: appends never rejected
  EXPECT_EQ(b.CreditRemaining(), 0u);
  EXPECT_EQ(b.stats().dropped, 0u);

  ASSERT_TRUE(b.ErasePrefix(7).ok());
  EXPECT_TRUE(b.Drained());  // 5 <= low watermark
  EXPECT_EQ(b.CreditRemaining(), 5u);
  EXPECT_EQ(b.stats().peak_rows, 12u);

  b.SetCapacity(0);  // bound removed
  EXPECT_EQ(b.CreditRemaining(), SIZE_MAX);
  EXPECT_TRUE(b.Drained());
}

TEST(BasketCapacityTest, ExplicitLowWatermarkClampedToHigh) {
  Basket b("s", StreamSchema());
  b.SetCapacity(4, 100);
  EXPECT_EQ(b.low_watermark(), 4u);
  b.SetCapacity(8, 2);
  EXPECT_EQ(b.low_watermark(), 2u);
}

TEST(BasketCapacityTest, DisableStillDropsWhileCapacityPushesBack) {
  // Disable() keeps the paper's drop semantics independent of the bound.
  Basket b("s", StreamSchema());
  b.SetCapacity(2);
  b.Disable();
  ASSERT_TRUE(b.Append(MakeBatch({1, 2, 3}), 0).ok());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.stats().dropped, 3u);
  b.Enable();
  ASSERT_TRUE(b.Append(MakeBatch({4, 5, 6}), 0).ok());
  EXPECT_EQ(b.size(), 3u);
  EXPECT_EQ(b.stats().dropped, 3u);
}

}  // namespace
}  // namespace datacell::core
