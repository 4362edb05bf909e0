#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "column/catalog.h"
#include "column/column.h"
#include "column/recycler.h"
#include "column/table.h"
#include "column/type.h"
#include "column/value.h"

namespace datacell {
namespace {

TEST(TypeTest, NamesRoundTrip) {
  for (DataType t : {DataType::kInt64, DataType::kDouble, DataType::kBool,
                     DataType::kString, DataType::kTimestamp}) {
    auto r = DataTypeFromName(DataTypeName(t));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, t);
  }
}

TEST(TypeTest, SqlSynonyms) {
  EXPECT_EQ(*DataTypeFromName("INTEGER"), DataType::kInt64);
  EXPECT_EQ(*DataTypeFromName("varchar"), DataType::kString);
  EXPECT_EQ(*DataTypeFromName("REAL"), DataType::kDouble);
  EXPECT_FALSE(DataTypeFromName("blob").ok());
}

TEST(SchemaTest, FindAndDuplicate) {
  Schema s;
  ASSERT_TRUE(s.AddField({"a", DataType::kInt64}).ok());
  ASSERT_TRUE(s.AddField({"b", DataType::kString}).ok());
  EXPECT_EQ(s.FindField("b"), 1);
  EXPECT_EQ(s.FindField("c"), -1);
  EXPECT_EQ(s.AddField({"a", DataType::kDouble}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(s.ToString(), "(a int, b string)");
}

TEST(ValueTest, TypePredicates) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value(1).is_int());
  EXPECT_TRUE(Value(1.5).is_double());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value("x").is_string());
}

TEST(ValueTest, MatchesType) {
  EXPECT_TRUE(Value(1).MatchesType(DataType::kInt64));
  EXPECT_TRUE(Value(1).MatchesType(DataType::kTimestamp));
  EXPECT_TRUE(Value(1).MatchesType(DataType::kDouble));  // widening
  EXPECT_FALSE(Value(1.5).MatchesType(DataType::kInt64));
  EXPECT_TRUE(Value::Null().MatchesType(DataType::kString));
}

TEST(ValueTest, CastTo) {
  EXPECT_EQ(Value(3.9).CastTo(DataType::kInt64)->int_value(), 3);
  EXPECT_DOUBLE_EQ(Value(3).CastTo(DataType::kDouble)->double_value(), 3.0);
  EXPECT_FALSE(Value("x").CastTo(DataType::kInt64).ok());
  EXPECT_TRUE(Value::Null().CastTo(DataType::kBool)->is_null());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(42).ToString(), "42");
  EXPECT_EQ(Value(false).ToString(), "false");
  EXPECT_EQ(Value("hi").ToString(), "'hi'");
}

TEST(ColumnTest, TypedAppendAndRead) {
  Column c(DataType::kInt64);
  c.AppendInt(1);
  c.AppendInt(2);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.ints()[1], 2);
  EXPECT_EQ(c.GetValue(0), Value(1));
}

TEST(ColumnTest, NullsLazyValidity) {
  Column c(DataType::kDouble);
  c.AppendDouble(1.0);
  EXPECT_FALSE(c.has_nulls());
  c.AppendNull();
  EXPECT_TRUE(c.has_nulls());
  EXPECT_TRUE(c.IsValid(0));
  EXPECT_FALSE(c.IsValid(1));
  c.AppendDouble(2.0);
  EXPECT_TRUE(c.IsValid(2));
  EXPECT_TRUE(c.GetValue(1).is_null());
}

TEST(ColumnTest, AppendValueChecksType) {
  Column c(DataType::kBool);
  EXPECT_TRUE(c.AppendValue(Value(true)).ok());
  EXPECT_EQ(c.AppendValue(Value(1)).code(), StatusCode::kTypeMismatch);
  EXPECT_TRUE(c.AppendValue(Value::Null()).ok());
  EXPECT_EQ(c.size(), 2u);
}

TEST(ColumnTest, IntWidensToDouble) {
  Column c(DataType::kDouble);
  ASSERT_TRUE(c.AppendValue(Value(7)).ok());
  EXPECT_DOUBLE_EQ(c.doubles()[0], 7.0);
}

TEST(ColumnTest, AppendColumnPropagatesNulls) {
  Column a(DataType::kInt64);
  a.AppendInt(1);
  Column b(DataType::kInt64);
  b.AppendNull();
  b.AppendInt(3);
  ASSERT_TRUE(a.AppendColumn(b).ok());
  EXPECT_EQ(a.size(), 3u);
  EXPECT_TRUE(a.IsValid(0));
  EXPECT_FALSE(a.IsValid(1));
  EXPECT_TRUE(a.IsValid(2));
}

TEST(ColumnTest, AppendColumnTypeMismatch) {
  Column a(DataType::kInt64);
  Column b(DataType::kString);
  EXPECT_EQ(a.AppendColumn(b).code(), StatusCode::kTypeMismatch);
}

TEST(ColumnTest, TakeReordersAndDuplicates) {
  Column c(DataType::kString);
  c.AppendString("a");
  c.AppendString("b");
  c.AppendString("c");
  Column t = c.Take({2, 0, 2});
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.strings()[0], "c");
  EXPECT_EQ(t.strings()[1], "a");
  EXPECT_EQ(t.strings()[2], "c");
}

TEST(ColumnTest, EraseRowsSinglePassShift) {
  Column c(DataType::kInt64);
  for (int i = 0; i < 10; ++i) c.AppendInt(i);
  c.EraseRows({0, 3, 4, 9});
  ASSERT_EQ(c.size(), 6u);
  std::vector<int64_t> expect = {1, 2, 5, 6, 7, 8};
  EXPECT_EQ(c.ints(), expect);
}

TEST(ColumnTest, EraseRowsEmptySelection) {
  Column c(DataType::kInt64);
  c.AppendInt(5);
  c.EraseRows({});
  EXPECT_EQ(c.size(), 1u);
}

TEST(ColumnTest, EraseRowsWithNulls) {
  Column c(DataType::kInt64);
  c.AppendInt(0);
  c.AppendNull();
  c.AppendInt(2);
  c.EraseRows({0});
  ASSERT_EQ(c.size(), 2u);
  EXPECT_FALSE(c.IsValid(0));
  EXPECT_TRUE(c.IsValid(1));
  EXPECT_EQ(c.ints()[1], 2);
}

// --- Columns with no rows -------------------------------------------------
// A column that holds no rows may own no buffer at all; every read and
// every first write must behave exactly as over an empty buffer.

TEST(EmptyColumnTest, ViewsAreEmpty) {
  for (DataType t : {DataType::kInt64, DataType::kDouble, DataType::kBool,
                     DataType::kString, DataType::kTimestamp}) {
    const Column c(t);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_TRUE(c.empty());
    EXPECT_EQ(c.PhysicalSize(), 0u);
    EXPECT_FALSE(c.has_nulls());
    EXPECT_EQ(c.raw_validity(), nullptr);
  }
  const Column i(DataType::kInt64);
  EXPECT_TRUE(i.ints().empty());
  EXPECT_EQ(i.ints().begin(), i.ints().end());
  EXPECT_TRUE(i.ints() == std::vector<int64_t>{});
  EXPECT_TRUE(Column(DataType::kDouble).doubles().empty());
  EXPECT_TRUE(Column(DataType::kBool).bools().empty());
  EXPECT_TRUE(Column(DataType::kString).strings().empty());
}

TEST(EmptyColumnTest, TwoEmptyColumnsShareNoStorage) {
  const Column a(DataType::kInt64);
  const Column b(DataType::kInt64);
  EXPECT_FALSE(a.SharesStorageWith(b));
  EXPECT_FALSE(b.SharesStorageWith(a));
  EXPECT_FALSE(a.SharesStorageWith(Column(DataType::kDouble)));
}

TEST(EmptyColumnTest, AppendColumnIntoAndFromEmpty) {
  Column src(DataType::kInt64);
  src.AppendInt(1);
  src.AppendNull();
  // Into an empty column: adopts the source's buffers.
  Column dst(DataType::kInt64);
  ASSERT_TRUE(dst.AppendColumn(src).ok());
  ASSERT_EQ(dst.size(), 2u);
  EXPECT_TRUE(dst.SharesStorageWith(src));
  EXPECT_FALSE(dst.IsValid(1));
  // From an empty column: a no-op on either side.
  const Column none(DataType::kInt64);
  ASSERT_TRUE(dst.AppendColumn(none).ok());
  EXPECT_EQ(dst.size(), 2u);
  Column still_empty(DataType::kInt64);
  ASSERT_TRUE(still_empty.AppendColumn(none).ok());
  EXPECT_TRUE(still_empty.empty());
  EXPECT_FALSE(still_empty.SharesStorageWith(none));
  // The adopted buffer detaches on the first write; the source is intact.
  dst.AppendInt(3);
  EXPECT_EQ(src.size(), 2u);
  EXPECT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.ints()[2], 3);
  EXPECT_FALSE(dst.SharesStorageWith(src));
}

TEST(EmptyColumnTest, ErasePrefixToEmptyThenAppend) {
  Column c(DataType::kString);
  c.AppendString("a");
  c.AppendString("b");
  const Column snapshot = c;
  c.ErasePrefix(2);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.head(), 0u);
  EXPECT_TRUE(c.strings().empty());
  EXPECT_FALSE(c.SharesStorageWith(snapshot));
  c.AppendString("c");
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c.strings()[0], "c");
  // The snapshot kept the consumed rows.
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot.strings()[1], "b");
  // Clear, then the bulk append path.
  c.Clear();
  EXPECT_TRUE(c.empty());
  ASSERT_TRUE(c.AppendColumn(snapshot).ok());
  EXPECT_EQ(c.size(), 2u);
}

TEST(EmptyColumnTest, TakeWithEmptySelection) {
  Column c(DataType::kDouble);
  c.AppendDouble(1.5);
  const Column none = c.Take({});
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.type(), DataType::kDouble);
  EXPECT_FALSE(none.SharesStorageWith(c));
  const Column from_empty = Column(DataType::kDouble).Take({});
  EXPECT_TRUE(from_empty.empty());
  Column dst(DataType::kDouble);
  ASSERT_TRUE(dst.AppendColumnRows(c, {}).ok());
  EXPECT_TRUE(dst.empty());
  ASSERT_TRUE(dst.AppendColumnRows(c, {0, 0}).ok());
  EXPECT_EQ(dst.doubles() == std::vector<double>({1.5, 1.5}), true);
  const Table t(Schema({{"a", DataType::kInt64}, {"b", DataType::kString}}));
  const Table taken = t.Take({});
  EXPECT_EQ(taken.num_columns(), 2u);
  EXPECT_EQ(taken.num_rows(), 0u);
}

TEST(EmptyColumnTest, AppendNullAndSetValidityOnFreshColumn) {
  Column n(DataType::kString);
  n.AppendNull();
  ASSERT_EQ(n.size(), 1u);
  EXPECT_TRUE(n.has_nulls());
  EXPECT_FALSE(n.IsValid(0));
  EXPECT_EQ(n.strings()[0], "");
  Column v(DataType::kInt64);
  v.SetValidity({});
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.has_nulls());
  v.ints().assign({4, 5});
  v.SetValidity({1, 0});
  EXPECT_TRUE(v.IsValid(0));
  EXPECT_FALSE(v.IsValid(1));
  EXPECT_EQ(v.ints()[1], 0);
  Column m(DataType::kBool);
  m.bools().push_back(1);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.GetValue(0), Value(true));
}

// --- Schema sharing -----------------------------------------------------

TEST(SchemaTest, AddFieldOnCopyLeavesOriginal) {
  const Schema base({{"a", DataType::kInt64}, {"b", DataType::kString}});
  Schema derived = base;
  EXPECT_TRUE(derived == base);
  ASSERT_TRUE(derived.AddField({"c", DataType::kDouble}).ok());
  EXPECT_EQ(base.num_fields(), 2u);
  EXPECT_EQ(base.FindField("c"), -1);
  EXPECT_EQ(derived.num_fields(), 3u);
  EXPECT_EQ(derived.FindField("c"), 2);
  EXPECT_EQ(derived.FindField("b"), 1);
  EXPECT_FALSE(derived == base);
  EXPECT_EQ(derived.AddField({"a", DataType::kBool}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(derived.num_fields(), 3u);
  // Equality is by content, not by shared storage.
  const Schema rebuilt({{"a", DataType::kInt64},
                        {"b", DataType::kString},
                        {"c", DataType::kDouble}});
  EXPECT_TRUE(rebuilt == derived);
  EXPECT_TRUE(Schema() == Schema(std::vector<Field>{}));
  EXPECT_EQ(Schema().num_fields(), 0u);
  EXPECT_EQ(Schema().FindField("a"), -1);
  EXPECT_EQ(Schema().ToString(), "()");
}

TEST(SchemaTest, TableCopyKeepsSchemaWhenOriginalGrows) {
  Table t(Schema({{"a", DataType::kInt64}}));
  ASSERT_TRUE(t.AppendRow({Value(1)}).ok());
  const Table copy = t;
  Schema grown = t.schema();
  ASSERT_TRUE(grown.AddField({"b", DataType::kInt64}).ok());
  EXPECT_EQ(copy.schema().num_fields(), 1u);
  EXPECT_EQ(t.schema().num_fields(), 1u);
  EXPECT_EQ(copy.GetRow(0)[0], Value(1));
}

// Copies of one shared Schema and Table taken on several threads, while
// another thread derives new schemas from its own copy: the shared field
// list is only ever read, so this is race-free (run under TSan).
TEST(SchemaTest, ConcurrentCopiesWhileDeriving) {
  const Schema shared({{"id", DataType::kInt64}, {"v", DataType::kDouble}});
  Table table(shared);
  ASSERT_TRUE(table.AppendRow({Value(1), Value(2.0)}).ok());
  const Table& frozen = table;
  constexpr int kReaders = 3;
  constexpr int kRounds = 2000;
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kRounds; ++i) {
        const Schema s = shared;
        const Table t = frozen;
        if (s.num_fields() != 2 || s.FindField("v") != 1 ||
            t.schema().num_fields() != 2 || t.num_rows() != 1) {
          bad.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kRounds; ++i) {
      Schema derived = shared;
      if (!derived.AddField({"x" + std::to_string(i % 7), DataType::kBool})
               .ok() ||
          derived.num_fields() != 3) {
        bad.fetch_add(1);
      }
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(shared.num_fields(), 2u);
}

Schema TwoColSchema() {
  return Schema({{"a", DataType::kInt64}, {"b", DataType::kString}});
}

TEST(TableTest, AppendRowAndGetRow) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("x")}).ok());
  ASSERT_TRUE(t.AppendRow({Value(2), Value("y")}).ok());
  EXPECT_EQ(t.num_rows(), 2u);
  Row r = t.GetRow(1);
  EXPECT_EQ(r[0], Value(2));
  EXPECT_EQ(r[1], Value("y"));
}

TEST(TableTest, AppendRowArityMismatch) {
  Table t(TwoColSchema());
  EXPECT_EQ(t.AppendRow({Value(1)}).code(), StatusCode::kInvalidArgument);
}

TEST(TableTest, AppendRowTypeMismatchLeavesAligned) {
  Table t(TwoColSchema());
  // Second value has wrong type; no column may be modified.
  EXPECT_EQ(t.AppendRow({Value(1), Value(2)}).code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(t.num_rows(), 0u);
  EXPECT_EQ(t.column(0).size(), t.column(1).size());
}

TEST(TableTest, ColumnLookup) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.GetColumn("b").ok());
  EXPECT_EQ(t.GetColumn("zz").status().code(), StatusCode::kNotFound);
}

TEST(TableTest, AppendTableAndRows) {
  Table a(TwoColSchema());
  ASSERT_TRUE(a.AppendRow({Value(1), Value("x")}).ok());
  Table b(TwoColSchema());
  ASSERT_TRUE(b.AppendRow({Value(2), Value("y")}).ok());
  ASSERT_TRUE(b.AppendRow({Value(3), Value("z")}).ok());
  ASSERT_TRUE(a.AppendTable(b).ok());
  EXPECT_EQ(a.num_rows(), 3u);
  ASSERT_TRUE(a.AppendTableRows(b, {1}).ok());
  EXPECT_EQ(a.num_rows(), 4u);
  EXPECT_EQ(a.GetRow(3)[0], Value(3));
}

TEST(TableTest, EraseRowsValidation) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("x")}).ok());
  EXPECT_EQ(t.EraseRows({5}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.EraseRows({0, 0}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(t.EraseRows({0}).ok());
  EXPECT_TRUE(t.empty());
}

TEST(TableTest, TakeProducesAlignedRows) {
  Table t(TwoColSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i), Value(std::string(1, 'a' + i))}).ok());
  }
  Table s = t.Take({4, 1});
  ASSERT_EQ(s.num_rows(), 2u);
  EXPECT_EQ(s.GetRow(0)[0], Value(4));
  EXPECT_EQ(s.GetRow(0)[1], Value("e"));
  EXPECT_EQ(s.GetRow(1)[0], Value(1));
}

TEST(TableTest, ClearKeepsSchema) {
  Table t(TwoColSchema());
  ASSERT_TRUE(t.AppendRow({Value(1), Value("x")}).ok());
  t.Clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.num_columns(), 2u);
  ASSERT_TRUE(t.AppendRow({Value(2), Value("y")}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog cat;
  auto t = cat.CreateTable("t1", TwoColSchema());
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(cat.HasTable("t1"));
  EXPECT_EQ(cat.CreateTable("t1", TwoColSchema()).status().code(),
            StatusCode::kAlreadyExists);
  auto got = cat.GetTable("t1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), t->get());
  ASSERT_TRUE(cat.DropTable("t1").ok());
  EXPECT_FALSE(cat.HasTable("t1"));
  EXPECT_EQ(cat.DropTable("t1").code(), StatusCode::kNotFound);
}

TEST(CatalogTest, ListSorted) {
  Catalog cat;
  ASSERT_TRUE(cat.CreateTable("zz", TwoColSchema()).ok());
  ASSERT_TRUE(cat.CreateTable("aa", TwoColSchema()).ok());
  auto names = cat.ListTables();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "aa");
  EXPECT_EQ(names[1], "zz");
}

// Property-style sweep: EraseRows and a Take of the complement leave the
// same rows for any deletion mask.
class ErasePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ErasePropertyTest, EraseAndKeepPartition) {
  const int mask_seed = GetParam();
  const size_t n = 32;
  Column base(DataType::kInt64);
  for (size_t i = 0; i < n; ++i) base.AppendInt(static_cast<int64_t>(i));

  SelVector erase, keep;
  for (size_t i = 0; i < n; ++i) {
    if (((mask_seed >> (i % 16)) ^ i) & 1) {
      erase.push_back(static_cast<uint32_t>(i));
    } else {
      keep.push_back(static_cast<uint32_t>(i));
    }
  }
  Column erased = base;
  erased.EraseRows(erase);
  const Column kept = base.Take(keep);
  ASSERT_EQ(erased.size(), kept.size());
  for (size_t i = 0; i < erased.size(); ++i) {
    EXPECT_EQ(erased.ints()[i], kept.ints()[i]);
  }
  EXPECT_EQ(erased.size() + erase.size(), n);
}

INSTANTIATE_TEST_SUITE_P(Masks, ErasePropertyTest,
                         ::testing::Values(0, 1, 0x5555, 0xAAAA, 0x1234, 0xFFFF,
                                           42, 777));

// --- Large-buffer recycler (column/recycler.h) -------------------------------

// Rows of an int64 column that fill `bytes`.
constexpr size_t RowsOf(size_t bytes) { return bytes / sizeof(int64_t); }

TEST(RecyclerTest, RecycledBufferComesBackEmpty) {
  const size_t n = RowsOf(2 * recycler::kMinBytes);
  std::vector<int64_t> v = recycler::Take<int64_t>(n);
  EXPECT_TRUE(v.empty());
  EXPECT_GE(v.capacity(), n);
  v.assign(n, 42);
  const int64_t* data = v.data();
  recycler::Park(&v);
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 0u);

  std::vector<int64_t> again = recycler::Take<int64_t>(n);
  EXPECT_EQ(again.data(), data);
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), n);
  recycler::Park(&again);
}

TEST(RecyclerTest, SmallBuffersAreNeverParked) {
  const size_t before = recycler::ParkedBytes();
  std::vector<int64_t> v = recycler::Take<int64_t>(16);
  v.assign(16, 1);
  recycler::Park(&v);
  EXPECT_EQ(v.size(), 16u);  // a small vector is left as it is
  {
    Column c(DataType::kInt64);
    c.Reserve(RowsOf(recycler::kMinBytes) - 1);
    for (int i = 0; i < 1000; ++i) c.AppendInt(i);
  }
  EXPECT_EQ(recycler::ParkedBytes(), before);
}

TEST(RecyclerTest, SnapshotPinsBufferUntilItsLastReferenceDrops) {
  const size_t n = RowsOf(4 * recycler::kMinBytes);
  Column c(DataType::kInt64);
  c.Reserve(n);
  for (size_t i = 0; i < n; ++i) c.AppendInt(static_cast<int64_t>(i));
  // Reads go through const references: the mutable accessors detach.
  Column snap = c;
  Column snap_copy = snap;
  const Column& snap_ro = snap;
  const Column& copy_ro = snap_copy;
  const int64_t* data = snap_ro.ints().data();

  // Clearing the writer drops one of three references: nothing is parked.
  const size_t before_clear = recycler::ParkedBytes();
  c.Clear();
  EXPECT_EQ(recycler::ParkedBytes(), before_clear);

  // The writer refills, consumes a prefix and appends (detaching from its
  // own new snapshot); the old snapshot keeps its buffer and rows.
  c.Reserve(n);
  for (size_t i = 0; i < n; ++i) c.AppendInt(-1);
  const Column snap2 = c;
  c.ErasePrefix(n / 2);
  c.AppendInt(-2);
  ASSERT_EQ(snap_ro.size(), n);
  EXPECT_EQ(snap_ro.ints().data(), data);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(snap_ro.ints()[i], static_cast<int64_t>(i));
  }
  ASSERT_EQ(snap2.size(), n);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(snap2.ints()[i], -1);

  const size_t before_drop = recycler::ParkedBytes();
  snap = Column(DataType::kInt64);
  EXPECT_EQ(recycler::ParkedBytes(), before_drop);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(copy_ro.ints()[i], static_cast<int64_t>(i));
  }
  snap_copy = Column(DataType::kInt64);  // the last reference: parked
  EXPECT_EQ(recycler::ParkedBytes(), before_drop + n * sizeof(int64_t));
}

TEST(RecyclerTest, ParkedBytesStayUnderTheCapOldestEvictedFirst) {
  const size_t mib = size_t{1} << 20;
  const size_t count = recycler::kCapBytes / mib;
  std::vector<std::vector<int64_t>> bufs;
  std::vector<const int64_t*> data;
  for (size_t i = 0; i < count; ++i) {
    bufs.push_back(recycler::Take<int64_t>(RowsOf(mib)));
    data.push_back(bufs.back().data());
  }
  // Parking them fills the cap exactly: whatever was parked before is
  // older and makes room.
  for (std::vector<int64_t>& b : bufs) {
    recycler::Park(&b);
    EXPECT_LE(recycler::ParkedBytes(), recycler::kCapBytes);
  }
  EXPECT_EQ(recycler::ParkedBytes(), recycler::kCapBytes);

  // A 2 MiB buffer (a size class of its own) evicts the two oldest.
  std::vector<int64_t> big = recycler::Take<int64_t>(RowsOf(2 * mib));
  recycler::Park(&big);
  EXPECT_EQ(recycler::ParkedBytes(), recycler::kCapBytes);

  std::set<const int64_t*> newest(data.begin() + 2, data.end());
  std::set<const int64_t*> taken;
  for (size_t i = 2; i < count; ++i) {
    bufs[i] = recycler::Take<int64_t>(RowsOf(mib));
    taken.insert(bufs[i].data());
  }
  EXPECT_EQ(taken, newest);
  for (size_t i = 2; i < count; ++i) recycler::Park(&bufs[i]);
}

TEST(RecyclerTest, ReusedValidityBufferCarriesNoStaleNulls) {
  // 100000 one-byte validity entries: the buffer lands inside a size
  // class, so the next request for one more row still fits it.
  const size_t n = 100000;
  const uint8_t* reused = nullptr;
  {
    Column c(DataType::kInt64);
    c.Reserve(n);
    c.ints().assign(n, 7);
    std::vector<uint8_t> valid = recycler::Take<uint8_t>(n);
    valid.assign(n, 0);
    valid[1] = 1;
    c.SetValidity(std::move(valid));
    ASSERT_TRUE(c.has_nulls());
    reused = c.raw_validity();
  }
  Column d(DataType::kInt64);
  d.Reserve(n);
  for (size_t i = 0; i < n; ++i) d.AppendInt(static_cast<int64_t>(i));
  Column tail(DataType::kInt64);
  tail.AppendNull();
  ASSERT_TRUE(d.AppendColumn(tail).ok());
  EXPECT_EQ(d.raw_validity(), reused);
  for (size_t i = 0; i < n; ++i) ASSERT_TRUE(d.IsValid(i)) << i;
  EXPECT_FALSE(d.IsValid(n));
}

// Threads take and park buffers while copying and dropping snapshots of
// their own columns; every snapshot keeps reading its own rows. Run under
// TSan: the recycler's lock is the only hand-off between threads.
TEST(RecyclerTest, ConcurrentTakeParkAndSnapshots) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 60;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &bad] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t n = RowsOf(recycler::kMinBytes) + 997 * (round % 5);
        const int64_t tag = t * 1000 + round;
        Column c(DataType::kInt64);
        c.Reserve(n);
        for (size_t i = 0; i < n; ++i) c.AppendInt(tag);
        const Column snap = c;
        if (round % 3 == 0) {
          c.Clear();
        } else if (round % 3 == 1) {
          c.ErasePrefix(n / 2);
        } else {
          c.AppendInt(-1);
        }
        std::vector<uint32_t> sel = recycler::Take<uint32_t>(n);
        sel.assign(n, static_cast<uint32_t>(tag));
        for (size_t i = 0; i < n; ++i) {
          if (snap.ints()[i] != tag || sel[i] != static_cast<uint32_t>(tag)) {
            bad.fetch_add(1);
            break;
          }
        }
        recycler::Park(&sel);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_LE(recycler::ParkedBytes(), recycler::kCapBytes);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(RecyclerDeathTest, ParkedBufferIsPoisonedUnderAsan) {
  std::vector<int64_t> v = recycler::Take<int64_t>(RowsOf(recycler::kMinBytes));
  v.assign(RowsOf(recycler::kMinBytes), 5);
  volatile const int64_t* stale = v.data();
  recycler::Park(&v);
  EXPECT_DEATH((void)stale[3], "use-after-poison");
}
#endif

}  // namespace
}  // namespace datacell
