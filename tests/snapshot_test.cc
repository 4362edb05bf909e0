// Snapshot-isolation coverage for the zero-copy basket hot path: COW
// column snapshots must stay immutable under every writer-side mutation
// (append, erase, prefix consumption, compaction, clear), and FIFO prefix
// consumption must be an O(1) head advance with amortized physical
// reclamation.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "column/column.h"
#include "column/table.h"
#include "core/basket.h"
#include "core/basket_expression.h"
#include "storage/pager.h"

namespace datacell {
namespace {

Column IntColumn(int64_t first, size_t n) {
  Column c(DataType::kInt64);
  for (size_t i = 0; i < n; ++i) c.AppendInt(first + static_cast<int64_t>(i));
  return c;
}

std::vector<int64_t> ToVector(const ColumnView<int64_t>& v) {
  return std::vector<int64_t>(v.begin(), v.end());
}

// --- Column-level COW ------------------------------------------------------

TEST(ColumnCowTest, CopyIsZeroCopyUntilMutation) {
  Column base = IntColumn(0, 100);
  Column snap = base;
  EXPECT_TRUE(snap.SharesStorageWith(base));
  // Reading does not detach.
  EXPECT_EQ(snap.size(), 100u);
  EXPECT_TRUE(snap.SharesStorageWith(base));
  // Writer mutation detaches the writer, not the snapshot.
  base.AppendInt(100);
  EXPECT_FALSE(snap.SharesStorageWith(base));
  EXPECT_EQ(base.size(), 101u);
  EXPECT_EQ(snap.size(), 100u);
}

TEST(ColumnCowTest, SnapshotUnaffectedByWriterAppends) {
  Column base = IntColumn(0, 10);
  const Column snap = base;
  const std::vector<int64_t> before = ToVector(snap.ints());
  for (int64_t v = 10; v < 50; ++v) base.AppendInt(v);
  EXPECT_EQ(ToVector(snap.ints()), before);
}

TEST(ColumnCowTest, SnapshotUnaffectedByWriterEraseAndClear) {
  Column base = IntColumn(0, 20);
  const Column snap = base;
  base.EraseRows({0, 1, 2, 5, 7});
  base.Clear();
  EXPECT_EQ(base.size(), 0u);
  ASSERT_EQ(snap.size(), 20u);
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(snap.ints()[i], static_cast<int64_t>(i));
  }
}

TEST(ColumnCowTest, SnapshotOfHeadOffsetColumnSeesLiveRowsOnly) {
  Column base = IntColumn(0, 100);
  base.ErasePrefix(40);  // below compaction threshold: head advances
  ASSERT_EQ(base.head(), 40u);
  const Column snap = base;
  EXPECT_EQ(snap.size(), 60u);
  EXPECT_EQ(snap.ints()[0], 40);
  // The writer consuming further does not move the snapshot's view.
  base.ErasePrefix(10);
  EXPECT_EQ(snap.ints()[0], 40);
  EXPECT_EQ(base.ints()[0], 50);
}

TEST(ColumnCowTest, ValidityVectorIsSnapshotIsolatedToo) {
  Column base(DataType::kInt64);
  base.AppendInt(1);
  base.AppendNull();
  base.AppendInt(3);
  const Column snap = base;
  base.AppendNull();
  base.EraseRows({1});
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_TRUE(snap.IsValid(0));
  EXPECT_FALSE(snap.IsValid(1));
  EXPECT_TRUE(snap.IsValid(2));
  ASSERT_EQ(base.size(), 3u);
  EXPECT_TRUE(base.IsValid(0));
  EXPECT_TRUE(base.IsValid(1));
  EXPECT_FALSE(base.IsValid(2));
}

TEST(ColumnCowTest, StringColumnsShareAndDetach) {
  Column base(DataType::kString);
  base.AppendString("alpha");
  base.AppendString("beta");
  Column snap = base;
  EXPECT_TRUE(snap.SharesStorageWith(base));
  base.AppendString("gamma");
  EXPECT_FALSE(snap.SharesStorageWith(base));
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.strings()[1], "beta");
}

// --- O(1) prefix consumption and compaction --------------------------------

TEST(ColumnHeadTest, ErasePrefixAdvancesHeadWithoutCopy) {
  Column c = IntColumn(0, 100);
  c.ErasePrefix(30);
  EXPECT_EQ(c.size(), 70u);
  EXPECT_EQ(c.head(), 30u);
  EXPECT_EQ(c.PhysicalSize(), 100u);  // nothing reclaimed yet
  EXPECT_EQ(c.ints()[0], 30);
  EXPECT_EQ(c.GetValue(0), Value(int64_t{30}));
}

TEST(ColumnHeadTest, FullConsumptionResetsStorage) {
  Column c = IntColumn(0, 1000);
  c.ErasePrefix(1000);
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.head(), 0u);
  EXPECT_EQ(c.PhysicalSize(), 0u);
}

TEST(ColumnHeadTest, CompactionReclaimsLargeConsumedPrefix) {
  // Consume more than half of a large buffer: the amortized compaction
  // must fold the head away.
  Column c = IntColumn(0, 1000);
  c.ErasePrefix(600);
  EXPECT_EQ(c.size(), 400u);
  EXPECT_EQ(c.head(), 0u);
  EXPECT_EQ(c.PhysicalSize(), 400u);
  EXPECT_EQ(c.ints()[0], 600);
}

TEST(ColumnHeadTest, CompactionDeferredWhileSnapshotPinsBuffer) {
  Column c = IntColumn(0, 1000);
  const Column snap = c;
  c.ErasePrefix(600);
  // Shared storage: the head advances but physical reclamation waits.
  EXPECT_EQ(c.size(), 400u);
  EXPECT_EQ(c.head(), 600u);
  EXPECT_EQ(c.PhysicalSize(), 1000u);
  EXPECT_TRUE(c.SharesStorageWith(snap));
  EXPECT_EQ(snap.size(), 1000u);
  // The writer's next mutation detaches and drops the stale prefix.
  c.AppendInt(1000);
  EXPECT_FALSE(c.SharesStorageWith(snap));
  EXPECT_EQ(c.head(), 0u);
  EXPECT_EQ(c.PhysicalSize(), 401u);
  EXPECT_EQ(c.ints()[0], 600);
  EXPECT_EQ(c.ints()[400], 1000);
  EXPECT_EQ(snap.size(), 1000u);
  EXPECT_EQ(snap.ints()[0], 0);
}

TEST(ColumnHeadTest, EraseRowsDetectsPrefixSelection) {
  Column c = IntColumn(0, 500);
  SelVector prefix(300);
  for (uint32_t i = 0; i < 300; ++i) prefix[i] = i;
  c.EraseRows(prefix);
  // Routed through ErasePrefix: compaction policy applies (600 > 256 and
  // more than half the buffer), so this also reclaims.
  EXPECT_EQ(c.size(), 200u);
  EXPECT_EQ(c.ints()[0], 300);
}

TEST(ColumnHeadTest, NonPrefixEraseStillWorksWithHeadOffset) {
  Column c = IntColumn(0, 10);
  c.ErasePrefix(4);  // live rows 4..9
  c.EraseRows({1, 3});  // logical rows: values 5 and 7
  const Column& view = c;
  EXPECT_EQ(ToVector(view.ints()), (std::vector<int64_t>{4, 6, 8, 9}));
}

TEST(ColumnHeadTest, MutableAccessorFoldsHeadAway) {
  Column c = IntColumn(0, 10);
  c.ErasePrefix(4);
  std::vector<int64_t>& raw = c.ints();
  // Physical and logical indexing must coincide for the raw vector.
  ASSERT_EQ(raw.size(), 6u);
  EXPECT_EQ(raw[0], 4);
  EXPECT_EQ(c.head(), 0u);
}

TEST(ColumnHeadTest, AppendAfterPrefixConsumptionKeepsHead) {
  // Steady-state FIFO: append after consume must not trigger a physical
  // shift per append (the typed append path leaves the head in place).
  Column c = IntColumn(0, 100);
  c.ErasePrefix(50);
  ASSERT_EQ(c.head(), 50u);
  c.AppendInt(100);
  EXPECT_EQ(c.head(), 50u);
  EXPECT_EQ(c.size(), 51u);
  EXPECT_EQ(c.ints()[50], 100);
}

// --- Table-level snapshots --------------------------------------------------

TEST(TableSnapshotTest, CopySharesAllColumns) {
  Table t(Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}));
  ASSERT_TRUE(t.AppendRow({Value(int64_t{1}), Value("x")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(int64_t{2}), Value("y")}).ok());
  const Table snap = t;
  EXPECT_TRUE(snap.column(0).SharesStorageWith(t.column(0)));
  EXPECT_TRUE(snap.column(1).SharesStorageWith(t.column(1)));
  ASSERT_TRUE(t.AppendRow({Value(int64_t{3}), Value("z")}).ok());
  EXPECT_EQ(snap.num_rows(), 2u);
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(snap.GetRow(1)[1], Value("y"));
}

TEST(TableSnapshotTest, ErasePrefixIsUniformAcrossColumns) {
  Table t(Schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}}));
  for (int64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i), Value(i * 0.5)}).ok());
  }
  ASSERT_TRUE(t.ErasePrefix(4).ok());
  EXPECT_EQ(t.num_rows(), 6u);
  EXPECT_EQ(t.GetRow(0)[0], Value(int64_t{4}));
  EXPECT_EQ(t.GetRow(0)[1], Value(2.0));
  // Over-long prefixes clamp.
  ASSERT_TRUE(t.ErasePrefix(100).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

// --- Basket-level snapshots -------------------------------------------------

core::BasketPtr MakeBasket(const std::string& name) {
  return std::make_shared<core::Basket>(
      name, Schema({{"v", DataType::kInt64}}), /*add_arrival_ts=*/false);
}

Table OneColBatch(int64_t first, size_t n) {
  Table t(Schema({{"v", DataType::kInt64}}));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(t.AppendRow({Value(first + static_cast<int64_t>(i))}).ok());
  }
  return t;
}

TEST(BasketSnapshotTest, PeekIsZeroCopyAndImmutable) {
  auto b = MakeBasket("b");
  ASSERT_TRUE(b->Append(OneColBatch(0, 100), 0).ok());
  const Table snap = b->Peek();
  EXPECT_TRUE(snap.column(0).SharesStorageWith(b->contents().column(0)));

  // Appends, prefix consumption, and a full clear: the snapshot holds.
  ASSERT_TRUE(b->Append(OneColBatch(100, 50), 0).ok());
  ASSERT_TRUE(b->ErasePrefix(80).ok());
  b->Clear();
  EXPECT_EQ(b->size(), 0u);
  ASSERT_EQ(snap.num_rows(), 100u);
  for (size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(snap.column(0).ints()[i], static_cast<int64_t>(i));
  }
}

TEST(BasketSnapshotTest, ErasePrefixIsHeadAdvance) {
  auto b = MakeBasket("b");
  ASSERT_TRUE(b->Append(OneColBatch(0, 100), 0).ok());
  ASSERT_TRUE(b->ErasePrefix(30).ok());
  EXPECT_EQ(b->size(), 70u);
  EXPECT_EQ(b->contents().column(0).head(), 30u);
  EXPECT_EQ(b->stats().consumed, 30u);
  // Version must bump so scheduler wakeups still fire on consumption.
  const uint64_t v = b->version();
  ASSERT_TRUE(b->ErasePrefix(10).ok());
  EXPECT_GT(b->version(), v);
  // Consuming nothing does not signal.
  const uint64_t v2 = b->version();
  ASSERT_TRUE(b->ErasePrefix(0).ok());
  EXPECT_EQ(b->version(), v2);
}

TEST(BasketSnapshotTest, TakeAllAfterSnapshotLeavesSnapshotIntact) {
  auto b = MakeBasket("b");
  ASSERT_TRUE(b->Append(OneColBatch(0, 10), 0).ok());
  const Table snap = b->Peek();
  Table taken = b->TakeAll();
  EXPECT_EQ(taken.num_rows(), 10u);
  EXPECT_EQ(snap.num_rows(), 10u);
  EXPECT_EQ(b->size(), 0u);
  // The moved-out table still shares with the snapshot until mutated.
  EXPECT_TRUE(taken.column(0).SharesStorageWith(snap.column(0)));
}

TEST(BasketSnapshotTest, BatchConsumeEvaluatesOnSnapshot) {
  auto b = MakeBasket("b");
  ASSERT_TRUE(b->Append(OneColBatch(0, 50), 0).ok());
  core::BasketExpression be(b);
  be.Consume(core::ConsumePolicy::kBatch);
  EvalContext ctx;
  auto result = be.Evaluate(ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 50u);
  EXPECT_EQ(b->size(), 0u);  // batch fully consumed
  EXPECT_EQ(result->column(0).ints()[49], 49);
}

TEST(BasketSnapshotTest, TopNBatchDoesNotConsumeUnderfilledWindow) {
  auto b = MakeBasket("b");
  ASSERT_TRUE(b->Append(OneColBatch(0, 3), 0).ok());
  core::BasketExpression be(b);
  be.Consume(core::ConsumePolicy::kBatch);
  be.OrderBy({{Expr::Col("v"), /*ascending=*/false}});
  be.Top(5);
  EvalContext ctx;
  auto result = be.Evaluate(ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_rows(), 0u);
  // The early-clear optimization must not fire for top-n windows.
  EXPECT_EQ(b->size(), 3u);
  // Once fillable, it consumes the whole batch.
  ASSERT_TRUE(b->Append(OneColBatch(3, 4), 0).ok());
  auto full = be.Evaluate(ctx);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->num_rows(), 5u);
  EXPECT_EQ(full->column(0).ints()[0], 6);
  EXPECT_EQ(b->size(), 0u);
}


// --- Zero-copy fan-out: appends into an empty table adopt the buffers ------

Table MixedBatch(int64_t first, size_t n) {
  Table t(Schema({{"v", DataType::kInt64}, {"s", DataType::kString}}));
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = first + static_cast<int64_t>(i);
    EXPECT_TRUE(t.AppendRow({i % 4 == 3 ? Value::Null() : Value(v),
                             Value("s" + std::to_string(v))})
                    .ok());
  }
  return t;
}

bool SharesAllColumns(const Table& a, const Table& b) {
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (!a.column(c).SharesStorageWith(b.column(c))) return false;
  }
  return true;
}

std::vector<Row> Rows(const Table& t) {
  std::vector<Row> rows;
  for (size_t i = 0; i < t.num_rows(); ++i) rows.push_back(t.GetRow(i));
  return rows;
}

TEST(AdoptTest, AppendIntoEmptyTableSharesUntilEitherSideMutates) {
  Table src = MixedBatch(0, 10);
  const std::vector<Row> before = Rows(src);

  // A second append detaches the destination; the source is unchanged.
  Table dst(src.schema());
  ASSERT_TRUE(dst.AppendTable(src).ok());
  EXPECT_TRUE(SharesAllColumns(dst, src));
  ASSERT_TRUE(dst.AppendTable(src).ok());
  EXPECT_FALSE(dst.column(0).SharesStorageWith(src.column(0)));
  EXPECT_EQ(dst.num_rows(), 20u);
  EXPECT_EQ(Rows(src), before);

  // An erase on the adopting side detaches it.
  Table erased(src.schema());
  ASSERT_TRUE(erased.AppendTable(src).ok());
  ASSERT_TRUE(erased.EraseRows({1, 4}).ok());
  EXPECT_FALSE(erased.column(1).SharesStorageWith(src.column(1)));
  EXPECT_EQ(erased.num_rows(), 8u);
  EXPECT_EQ(Rows(src), before);

  // Mutating the source leaves every adopter as it was.
  Table kept(src.schema());
  ASSERT_TRUE(kept.AppendTable(src).ok());
  ASSERT_TRUE(src.AppendRow({Value(99), Value("late")}).ok());
  ASSERT_TRUE(src.EraseRows({0, 2}).ok());
  EXPECT_FALSE(kept.column(0).SharesStorageWith(src.column(0)));
  EXPECT_EQ(Rows(kept), before);
}

TEST(AdoptTest, AdoptedHeadOffsetShowsLiveRowsOnly) {
  Column src = IntColumn(0, 100);
  src.ErasePrefix(30);
  Column dst(DataType::kInt64);
  ASSERT_TRUE(dst.AppendColumn(src).ok());
  EXPECT_TRUE(dst.SharesStorageWith(src));
  ASSERT_EQ(dst.size(), 70u);
  EXPECT_EQ(dst.ints()[0], 30);
  // A mismatched type neither adopts nor appends.
  Column dbl(DataType::kDouble);
  EXPECT_FALSE(dbl.AppendColumn(src).ok());
  EXPECT_TRUE(dbl.empty());
}

TEST(AdoptTest, TypeMismatchLeavesTableAligned) {
  Table dst(Schema({{"v", DataType::kInt64}, {"s", DataType::kInt64}}));
  EXPECT_FALSE(dst.AppendTable(MixedBatch(0, 3)).ok());
  EXPECT_EQ(dst.column(0).size(), 0u);
  EXPECT_EQ(dst.column(1).size(), 0u);
}

TEST(AdoptTest, FanOutToBasketsSharesOneBufferUntilEachMutates) {
  const Table batch = MixedBatch(0, 8);
  const std::vector<Row> before = Rows(batch);
  const Schema schema = batch.schema();
  auto a = std::make_shared<core::Basket>("a", schema, false);
  auto b = std::make_shared<core::Basket>("b", schema, false);
  auto c = std::make_shared<core::Basket>("c", schema, false);
  for (const auto& basket : {a, b, c}) {
    ASSERT_TRUE(basket->AppendAligned(batch, 0).ok());
    EXPECT_TRUE(SharesAllColumns(basket->Peek(), batch));
  }
  ASSERT_TRUE(a->AppendAligned(MixedBatch(100, 2), 0).ok());
  ASSERT_TRUE(b->EraseRows({0, 5}).ok());
  c->Clear();
  EXPECT_EQ(a->size(), 10u);
  EXPECT_EQ(b->size(), 6u);
  EXPECT_EQ(c->size(), 0u);
  EXPECT_EQ(Rows(batch), before);
  const Table a_rows = a->Peek();
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(a_rows.GetRow(i), before[i]);
  }
  EXPECT_EQ(b->Peek().GetRow(0), before[1]);
}

TEST(AdoptTest, ArrivalStampedAppendSharesUserColumns) {
  const Table batch = MixedBatch(0, 5);
  core::Basket basket("s", batch.schema(), /*add_arrival_ts=*/true);
  ASSERT_TRUE(basket.Append(batch, 1234).ok());
  const Table snap = basket.Peek();
  ASSERT_EQ(snap.num_columns(), 3u);
  EXPECT_TRUE(snap.column(0).SharesStorageWith(batch.column(0)));
  EXPECT_TRUE(snap.column(1).SharesStorageWith(batch.column(1)));
  EXPECT_TRUE(snap.column(2).ints() == std::vector<int64_t>(5, 1234));
}

TEST(AdoptTest, SpillAttachedBasketFaultsBackAdoptedRows) {
  const std::string path =
      ::testing::TempDir() + "adopt_spill_" + std::to_string(::getpid());
  auto pager = storage::Pager::Open(path);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  storage::BufferPool pool(std::move(*pager), 8);
  core::Basket basket("spill", Schema({{"v", DataType::kInt64}}), false);
  basket.SetCapacity(100, 50);
  basket.AttachSpill(&pool);

  std::vector<Table> batches;
  for (int64_t first = 0; first < 300; first += 60) {
    batches.push_back(OneColBatch(first, 60));
    ASSERT_TRUE(basket.AppendAligned(batches.back(), 0).ok());
  }
  EXPECT_GT(basket.spilled_rows(), 0u);
  const Table all = basket.Peek();  // faults every spilled row back in
  ASSERT_EQ(all.num_rows(), 300u);
  for (size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(all.column(0).ints()[i], static_cast<int64_t>(i));
  }
  EXPECT_EQ(basket.spilled_rows(), 0u);
  // The producers' batches never saw the spill's prefix consumption.
  for (size_t b = 0; b < batches.size(); ++b) {
    ASSERT_EQ(batches[b].num_rows(), 60u);
    EXPECT_EQ(batches[b].column(0).ints()[0], static_cast<int64_t>(b * 60));
  }
  std::remove(path.c_str());
}

// Two consumers mutate their own copy of one fan-out buffer on two
// threads while a third reads the source: every side detaches on its own
// first mutation and no one observes another's writes.
TEST(AdoptTest, ConcurrentMutationsOfAFanOutBufferStayPrivate) {
  const Table batch = OneColBatch(0, 4096);
  auto left = MakeBasket("left");
  auto right = MakeBasket("right");
  ASSERT_TRUE(left->AppendAligned(batch, 0).ok());
  ASSERT_TRUE(right->AppendAligned(batch, 0).ok());
  auto churn = [](const core::BasketPtr& b, int64_t tag) {
    for (int round = 0; round < 50; ++round) {
      EXPECT_TRUE(b->AppendAligned(OneColBatch(tag, 16), 0).ok());
      EXPECT_TRUE(b->ErasePrefix(16).ok());
      EXPECT_TRUE(b->EraseRows({0}).ok());
      EXPECT_TRUE(b->AppendAligned(OneColBatch(tag, 1), 0).ok());
    }
  };
  std::thread t1(churn, left, 1'000'000);
  std::thread t2(churn, right, 2'000'000);
  int64_t sum = 0;
  for (int pass = 0; pass < 20; ++pass) {
    for (int64_t v : batch.column(0).ints()) sum += v;
  }
  t1.join();
  t2.join();
  EXPECT_EQ(sum, 20 * (4095 * 4096 / 2));
  for (const auto& b : {left, right}) {
    const Table t = b->Peek();
    ASSERT_EQ(t.num_rows(), 4096u);
    // Each round consumes 16 + 1 rows from the front and appends as many
    // at the tail: the front moved 50 * 17 rows into the shared batch.
    EXPECT_EQ(t.column(0).ints()[0], 850);
  }
}

}  // namespace
}  // namespace datacell
