#include <gtest/gtest.h>

#include "column/catalog.h"
#include "column/column.h"
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

}  // namespace
}  // namespace datacell
