#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/scheduler.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "storage/pager.h"
#include "util/clock.h"

namespace datacell::sql {
namespace {

class SqlTest : public ::testing::Test {
 protected:
  SqlTest() : clock_(0), engine_(&clock_), session_(&engine_) {}

  // Executes and asserts success.
  Table Exec(const std::string& sql) {
    auto r = session_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    if (!r.ok()) return Table();
    return std::move(r).value();
  }

  Status ExecStatus(const std::string& sql) {
    return session_.Execute(sql).status();
  }

  // Runs EXPLAIN and joins its plan rows into one text, a line per row.
  std::string Explain(const std::string& sql) {
    Table plan = Exec("explain " + sql);
    std::string text;
    for (size_t i = 0; i < plan.num_rows(); ++i) {
      text += plan.GetRow(i)[0].string_value() + "\n";
    }
    return text;
  }

  SimulatedClock clock_;
  core::Engine engine_;
  Session session_;
};

// --------------------------------------------------------------------------
// Parsing
// --------------------------------------------------------------------------

TEST(ParserTest, ParsesSimpleSelect) {
  auto stmts = Parse("select a, b from t where a > 1 order by b desc limit 3;");
  ASSERT_TRUE(stmts.ok());
  ASSERT_EQ(stmts->size(), 1u);
  const Statement& s = *(*stmts)[0];
  ASSERT_EQ(s.kind, Statement::Kind::kSelect);
  EXPECT_EQ(s.select->items.size(), 2u);
  EXPECT_NE(s.select->where, nullptr);
  EXPECT_EQ(s.select->order_by.size(), 1u);
  EXPECT_FALSE(s.select->order_by[0].ascending);
  EXPECT_EQ(s.select->top_n, 3u);
}

TEST(ParserTest, ParsesBasketExpression) {
  auto stmt = ParseOne("select * from [select * from r where r.b < 10] as s "
                       "where s.a > 1");
  ASSERT_TRUE(stmt.ok());
  const SelectStmt& outer = *(*stmt)->select;
  ASSERT_EQ(outer.from.size(), 1u);
  EXPECT_EQ(outer.from[0].kind, FromItem::Kind::kBasketExpr);
  EXPECT_EQ(outer.from[0].alias, "s");
  EXPECT_TRUE(IsContinuous(**stmt));
  std::vector<std::string> sources;
  CollectBasketSources(**stmt, &sources);
  ASSERT_EQ(sources.size(), 1u);
  EXPECT_EQ(sources[0], "r");
}

TEST(ParserTest, PaperTopSyntax) {
  // `select top 20 from X order by tag` (§5 filter example).
  auto stmt = ParseOne("select top 20 from x order by tag");
  ASSERT_TRUE(stmt.ok());
  const SelectStmt& s = *(*stmt)->select;
  EXPECT_EQ(s.top_n, 20u);
  ASSERT_EQ(s.items.size(), 1u);
  EXPECT_TRUE(s.items[0].star);
}

TEST(ParserTest, PaperSelectAllSyntax) {
  auto stmt = ParseOne("insert into trash [select all from x where x.tag < 5]");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->kind, Statement::Kind::kInsert);
  ASSERT_NE((*stmt)->insert->select, nullptr);
  EXPECT_TRUE(IsContinuous(**stmt));
}

TEST(ParserTest, WithBlock) {
  auto stmt = ParseOne(
      "with a as [select * from x] begin "
      "insert into y select * from a where a.payload > 100; "
      "insert into z select * from a where a.payload <= 200; "
      "end");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->kind, Statement::Kind::kWithBlock);
  EXPECT_EQ((*stmt)->with_block->binding, "a");
  EXPECT_EQ((*stmt)->with_block->body.size(), 2u);
}

TEST(ParserTest, ScalarSubquery) {
  auto stmt = ParseOne("set cnt = cnt + (select count(*) from z)");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ((*stmt)->kind, Statement::Kind::kSet);
  EXPECT_EQ((*stmt)->subqueries.size(), 1u);
}

TEST(ParserTest, IntervalLiteral) {
  auto stmt = ParseOne("select * from t where ts < now() - interval 1 hour");
  ASSERT_TRUE(stmt.ok());
  // also the quoted form
  EXPECT_TRUE(ParseOne("select * from t where ts < interval '90' second").ok());
}

TEST(ParserTest, Between) {
  auto stmt = ParseOne("select * from t where a between 1 and 5");
  ASSERT_TRUE(stmt.ok());
  EXPECT_NE((*stmt)->select->where, nullptr);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("select from where").ok());
  EXPECT_FALSE(Parse("frobnicate the stream").ok());
  EXPECT_FALSE(Parse("select * from [select * from x").ok());  // missing ]
  EXPECT_FALSE(Parse("with a as [select * from x] begin insert into y "
                     "select * from a").ok());  // missing END
  EXPECT_FALSE(Parse("select 'unterminated").ok());
}

TEST(ParserTest, Comments) {
  auto stmts = Parse(
      "-- a comment\n"
      "select 1 one; /* block\n comment */ select 2 two;");
  ASSERT_TRUE(stmts.ok());
  EXPECT_EQ(stmts->size(), 2u);
}

// --------------------------------------------------------------------------
// One-time execution over tables
// --------------------------------------------------------------------------

TEST_F(SqlTest, CreateInsertSelect) {
  Exec("create table t (a int, b string)");
  Exec("insert into t values (1, 'x'), (2, 'y'), (3, 'x')");
  Table r = Exec("select a from t where b = 'x' order by a desc");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetRow(0)[0], Value(3));
  EXPECT_EQ(r.GetRow(1)[0], Value(1));
}

// Once a crash: INT64_MIN / -1 trapped (SIGFPE) inside the vector
// kernel. Integer overflow is NULL, like x/0.
TEST_F(SqlTest, IntegerOverflowYieldsNullInsteadOfTrapping) {
  Exec("create table t (a int)");
  Exec("insert into t values (-9223372036854775807), (5)");
  Table r = Exec("select (a - 1) / -1 from t");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_TRUE(r.GetRow(0)[0].is_null());
  EXPECT_EQ(r.GetRow(1)[0], Value(int64_t{-4}));
  r = Exec("select a - 2, a * 2, (a - 1) % -1, -(a - 1) from t");
  ASSERT_EQ(r.num_rows(), 2u);
  for (size_t c = 0; c < 4; ++c) EXPECT_TRUE(r.GetRow(0)[c].is_null()) << c;
  EXPECT_EQ(r.GetRow(1)[0], Value(int64_t{3}));
  EXPECT_EQ(r.GetRow(1)[1], Value(int64_t{10}));
  EXPECT_EQ(r.GetRow(1)[2], Value(int64_t{0}));
  EXPECT_EQ(r.GetRow(1)[3], Value(int64_t{-4}));
  // Constant folding agrees.
  r = Exec("select (-9223372036854775807 - 1) / -1 answer");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_TRUE(r.GetRow(0)[0].is_null());
}

TEST_F(SqlTest, SelectWithoutFrom) {
  Table r = Exec("select 1 + 2 answer");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetRow(0)[0], Value(3));
  EXPECT_EQ(r.schema().field(0).name, "answer");
}

TEST_F(SqlTest, Projection) {
  Exec("create table t (a int, b double)");
  Exec("insert into t values (1, 0.5), (2, 1.5)");
  Table r = Exec("select a * 10 as big, b from t");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.schema().field(0).name, "big");
  EXPECT_EQ(r.GetRow(1)[0], Value(20));
}

TEST_F(SqlTest, Aggregates) {
  Exec("create table t (k string, v int)");
  Exec("insert into t values ('a', 1), ('a', 2), ('b', 5)");
  Table r = Exec("select k, sum(v) total, count(*) n from t group by k "
                 "order by k");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetRow(0)[0], Value("a"));
  EXPECT_EQ(r.GetRow(0)[1], Value(int64_t{3}));
  EXPECT_EQ(r.GetRow(0)[2], Value(int64_t{2}));
  EXPECT_EQ(r.GetRow(1)[1], Value(int64_t{5}));
}

TEST_F(SqlTest, AggregateArithmetic) {
  Exec("create table t (v int)");
  Exec("insert into t values (10), (20)");
  Table r = Exec("select 2 * (count(*) - 1) x, avg(v) + 1 y from t");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetRow(0)[0], Value(2));
  EXPECT_EQ(r.GetRow(0)[1], Value(16.0));
}

TEST_F(SqlTest, Having) {
  Exec("create table t (k int, v int)");
  Exec("insert into t values (1, 1), (1, 2), (2, 9)");
  Table r = Exec("select k from t group by k having count(*) >= 2");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetRow(0)[0], Value(1));
}

TEST_F(SqlTest, Distinct) {
  Exec("create table t (a int)");
  Exec("insert into t values (1), (2), (1), (3), (2)");
  Table r = Exec("select distinct a from t order by a");
  ASSERT_EQ(r.num_rows(), 3u);
}

TEST_F(SqlTest, JoinTwoTables) {
  Exec("create table o (id int, cust string)");
  Exec("create table p (oid int, amt double)");
  Exec("insert into o values (1, 'ann'), (2, 'bob')");
  Exec("insert into p values (1, 5.0), (1, 6.0), (9, 7.0)");
  Table r = Exec("select o.cust, p.amt from o, p where o.id = p.oid "
                 "order by p.amt");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetRow(0)[0], Value("ann"));
  EXPECT_EQ(r.GetRow(0)[1], Value(5.0));
}

TEST_F(SqlTest, ThetaJoin) {
  Exec("create table a (x int)");
  Exec("create table b (y int)");
  Exec("insert into a values (1), (5)");
  Exec("insert into b values (3), (4)");
  Table r = Exec("select a.x, b.y from a, b where a.x < b.y order by x, y");
  ASSERT_EQ(r.num_rows(), 2u);  // (1,3), (1,4)
  EXPECT_EQ(r.GetRow(0)[0], Value(1));
}

TEST_F(SqlTest, SelfJoinWithAliases) {
  Exec("create table t (id int, pos int)");
  Exec("insert into t values (1, 7), (2, 7), (3, 8)");
  Table r = Exec(
      "select a.id, b.id from t as a, t as b "
      "where a.pos = b.pos and a.id < b.id");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetRow(0)[0], Value(1));
  EXPECT_EQ(r.GetRow(0)[1], Value(2));
}

TEST_F(SqlTest, VariablesDeclareSet) {
  Exec("declare threshold int");
  Exec("set threshold = 10");
  Exec("create table t (v int)");
  Exec("insert into t values (5), (15)");
  Table r = Exec("select v from t where v > threshold");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetRow(0)[0], Value(15));
}

TEST_F(SqlTest, SetWithScalarSubquery) {
  Exec("create table z (payload int)");
  Exec("insert into z values (1), (2), (3)");
  Exec("declare cnt int; set cnt = 0");
  Exec("set cnt = cnt + (select count(*) from z)");
  EXPECT_EQ(*engine_.GetVariable("cnt"), Value(int64_t{3}));
  Exec("set cnt = cnt + (select count(*) from z)");
  EXPECT_EQ(*engine_.GetVariable("cnt"), Value(int64_t{6}));
}

TEST_F(SqlTest, InsertSelectBetweenTables) {
  Exec("create table src (a int)");
  Exec("create table dst (a int)");
  Exec("insert into src values (1), (2), (3)");
  Exec("insert into dst select a from src where a >= 2");
  Table r = Exec("select count(*) n from dst");
  EXPECT_EQ(r.GetRow(0)[0], Value(int64_t{2}));
}

TEST_F(SqlTest, InsertColumnList) {
  Exec("create table t (a int, b string, c double)");
  Exec("insert into t (c, a) values (1.5, 7)");
  Table r = Exec("select a, b, c from t");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetRow(0)[0], Value(7));
  EXPECT_TRUE(r.GetRow(0)[1].is_null());
  EXPECT_EQ(r.GetRow(0)[2], Value(1.5));
}

TEST_F(SqlTest, IntWidensOnInsert) {
  Exec("create table t (d double)");
  Exec("insert into t values (3)");
  Table r = Exec("select d from t");
  EXPECT_EQ(r.GetRow(0)[0], Value(3.0));
}

TEST_F(SqlTest, InsertValuesTypesByTargetColumns) {
  // VALUES rows take the target's column types: a NULL fits any column,
  // and an int in a double column widens, whatever the other rows hold.
  Exec("create table t (name string, x double)");
  Exec("insert into t values (NULL, 2.0)");
  Exec("insert into t values ('b', 1), ('c', 2.5)");
  Table r = Exec("select name, x from t");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_TRUE(r.GetRow(0)[0].is_null());
  EXPECT_EQ(r.GetRow(0)[1], Value(2.0));
  EXPECT_EQ(r.GetRow(1)[0], Value(std::string("b")));
  EXPECT_EQ(r.GetRow(1)[1], Value(1.0));
  EXPECT_EQ(r.GetRow(2)[1], Value(2.5));
}

TEST_F(SqlTest, InsertValuesColumnListTypesByTarget) {
  Exec("create table t (a int, b string, c double)");
  Exec("insert into t (b, c) values (NULL, 1), ('y', 2.5)");
  Table r = Exec("select a, b, c from t");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_TRUE(r.GetRow(0)[0].is_null());
  EXPECT_TRUE(r.GetRow(0)[1].is_null());
  EXPECT_EQ(r.GetRow(0)[2], Value(1.0));
  EXPECT_EQ(r.GetRow(1)[1], Value(std::string("y")));
  EXPECT_EQ(r.GetRow(1)[2], Value(2.5));
}

TEST_F(SqlTest, InsertValuesMismatchFailsAndLeavesTableUnchanged) {
  Exec("create table t (a int, b int)");
  Exec("insert into t values (7, 8)");
  const Status st = ExecStatus("insert into t values (2, 3), (1, 'x')");
  EXPECT_EQ(st.code(), StatusCode::kTypeMismatch) << st.ToString();
  Table r = Exec("select a, b from t");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetRow(0)[0], Value(7));
}

TEST_F(SqlTest, TypeErrors) {
  Exec("create table t (a int)");
  EXPECT_FALSE(ExecStatus("insert into t values ('x')").ok());
  EXPECT_FALSE(ExecStatus("select a + 'x' from t").ok());
  EXPECT_FALSE(ExecStatus("select nosuch from t").ok());
  EXPECT_FALSE(ExecStatus("select * from nosuch_table").ok());
}

TEST_F(SqlTest, DropStatements) {
  Exec("create table t (a int)");
  Exec("create basket s (a int)");
  Exec("drop table t");
  Exec("drop basket s");
  EXPECT_FALSE(ExecStatus("select * from t").ok());
  EXPECT_FALSE(engine_.HasBasket("s"));
}

// --------------------------------------------------------------------------
// Baskets and basket expressions
// --------------------------------------------------------------------------

TEST_F(SqlTest, CreateBasketAddsArrivalColumn) {
  Exec("create basket s (tag timestamp, payload int)");
  auto b = engine_.GetBasket("s");
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE((*b)->has_arrival_column());
}

TEST_F(SqlTest, BasketCheckConstraintSilentFilter) {
  Exec("create basket s (v int) check (v >= 0) check (v < 100)");
  Exec("insert into s values (5), (-1), (250), (42)");
  // Violators were silently dropped, not rejected.
  Table r = Exec("select v from s order by v");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetRow(0)[0], Value(5));
  EXPECT_EQ(r.GetRow(1)[0], Value(42));
  auto b = engine_.GetBasket("s");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*b)->stats().dropped, 2u);
}

TEST_F(SqlTest, CheckOnTableRejected) {
  EXPECT_FALSE(ExecStatus("create table t (v int) check (v > 0)").ok());
}

TEST_F(SqlTest, BasketReadOutsideBracketsPeeks) {
  Exec("create basket s (payload int)");
  Exec("insert into s values (1), (2)");
  Table r1 = Exec("select payload from s");
  EXPECT_EQ(r1.num_rows(), 2u);
  // Reading again: still there (temporary-table semantics, §3.4).
  Table r2 = Exec("select payload from s");
  EXPECT_EQ(r2.num_rows(), 2u);
}

TEST_F(SqlTest, PaperQueryQ1SelectAllConsumes) {
  // (q1) select * from [select * from R] as S where S.a > v1
  Exec("create basket r (a int)");
  Exec("insert into r values (1), (5), (9)");
  Table out = Exec("select * from [select * from r] as s where s.a > 4");
  ASSERT_EQ(out.num_rows(), 2u);
  // All tuples were referenced by the basket expression -> basket empty.
  EXPECT_EQ((*engine_.GetBasket("r"))->size(), 0u);
}

TEST_F(SqlTest, PaperQueryQ2PredicateWindow) {
  // (q2) select * from [select * from R where R.b < v2] as S where S.a > v1
  Exec("create basket r (a int, b int)");
  Exec("insert into r values (1, 1), (5, 1), (9, 99)");
  Table out = Exec(
      "select * from [select * from r where r.b < 10] as s where s.a > 4");
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.GetRow(0)[0], Value(5));
  // Only the two b<10 tuples were referenced/consumed; (9,99) remains.
  EXPECT_EQ((*engine_.GetBasket("r"))->size(), 1u);
}

TEST_F(SqlTest, InnerProjectionInBasketExpr) {
  Exec("create basket s (a int, b int)");
  Exec("insert into s values (1, 10), (2, 20)");
  Table out = Exec("select * from [select s.a from s] as z");
  ASSERT_EQ(out.num_rows(), 2u);
  EXPECT_EQ(out.num_columns(), 1u);
  EXPECT_EQ(out.schema().field(0).name, "a");
}

TEST_F(SqlTest, StarSkipsArrivalColumn) {
  Exec("create basket s (payload int)");
  Exec("insert into s values (1)");
  Table out = Exec("select * from [select * from s] as z");
  ASSERT_EQ(out.num_columns(), 1u);
  EXPECT_EQ(out.schema().field(0).name, "payload");
}

TEST_F(SqlTest, ArrivalColumnAccessibleExplicitly) {
  Exec("create basket s (payload int)");
  clock_.SetTime(42);
  Exec("insert into s values (7)");
  Table out = Exec("select z.dc_arrival from [select * from s] as z");
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.GetRow(0)[0], Value(int64_t{42}));
}

TEST_F(SqlTest, PaperOutlierFilter) {
  // §5: insert into outliers select b.tag, b.payload from
  //     [select top 20 from X order by tag] as b where b.payload > 100.
  Exec("create basket x (tag int, payload int)");
  Exec("create table outliers (tag int, payload int)");
  std::string ins = "insert into x values ";
  for (int i = 0; i < 25; ++i) {
    if (i) ins += ", ";
    ins += "(" + std::to_string(100 - i) + ", " + std::to_string(i * 10) + ")";
  }
  Exec(ins);
  Exec("insert into outliers select b.tag, b.payload from "
       "[select top 20 from x order by tag] as b where b.payload > 100");
  // The 20 lowest tags were taken (tags 76..95 = payloads 240..50 desc);
  // payload >100 among them.
  Table r = Exec("select count(*) n from outliers");
  EXPECT_EQ(r.GetRow(0)[0], Value(int64_t{14}));
  // 20 consumed, 5 remain.
  EXPECT_EQ((*engine_.GetBasket("x"))->size(), 5u);
}

TEST_F(SqlTest, TopWindowWaits) {
  Exec("create basket x (v int)");
  Exec("insert into x values (1), (2)");
  Table r = Exec("select * from [select top 5 from x] as w");
  EXPECT_EQ(r.num_rows(), 0u);
  EXPECT_EQ((*engine_.GetBasket("x"))->size(), 2u);
}

TEST_F(SqlTest, WithBlockSplitsStream) {
  // §5 split example.
  Exec("create basket x (payload int)");
  Exec("create table y (payload int)");
  Exec("create table z (payload int)");
  Exec("insert into x values (50), (150), (250)");
  Exec("with a as [select * from x] begin "
       "insert into y select * from a where a.payload > 100; "
       "insert into z select * from a where a.payload <= 200; "
       "end");
  EXPECT_EQ(Exec("select count(*) n from y").GetRow(0)[0], Value(int64_t{2}));
  EXPECT_EQ(Exec("select count(*) n from z").GetRow(0)[0], Value(int64_t{2}));
  EXPECT_EQ((*engine_.GetBasket("x"))->size(), 0u);
}

TEST_F(SqlTest, FactoryPlacesComeFromThePreparedStatement) {
  // The factory consumes every basket a basket expression reads, a scalar
  // subquery's included, and waits for n tuples of a one-basket `top n`
  // window (the largest n when a basket is read twice); it outputs into the
  // target baskets that exist, not into tables.
  Exec("create basket a (v int)");
  Exec("create basket b (v int)");
  Exec("create basket y (v int)");
  Exec("create table t (v int)");
  auto f = session_.RegisterContinuousQuery(
      "q",
      "with w as [select top 3 from a] begin "
      "insert into y select v from w "
      "where v > (select count(*) from [select top 2 from b]); "
      "insert into t select v from w "
      "where v > (select count(*) from [select top 4 from a]); "
      "end");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_EQ((*f)->num_inputs(), 2u);
  EXPECT_EQ((*f)->input(0)->name(), "a");
  EXPECT_EQ((*f)->input(1)->name(), "b");
  ASSERT_EQ((*f)->num_outputs(), 1u);
  EXPECT_EQ((*f)->output(0)->name(), "y");
  Exec("insert into a values (1), (2), (3)");
  Exec("insert into b values (1), (2)");
  EXPECT_FALSE((*f)->CanFire(0));  // `a` waits for 4 tuples
  Exec("insert into a values (4)");
  EXPECT_TRUE((*f)->CanFire(0));
}

TEST_F(SqlTest, MergeJoinConsumesMatched) {
  // §5 merge: select A.* from [select * from X,Y where X.id=Y.id] as A.
  Exec("create basket x (id int, v int)");
  Exec("create basket y (id int, w int)");
  Exec("insert into x values (1, 10), (2, 20), (3, 30)");
  Exec("insert into y values (2, 200), (4, 400)");
  Table r = Exec("select * from [select * from x, y where x.id = y.id] as a");
  ASSERT_EQ(r.num_rows(), 1u);
  // Matched tuples removed from both baskets; residue awaits late arrivals.
  EXPECT_EQ((*engine_.GetBasket("x"))->size(), 2u);
  EXPECT_EQ((*engine_.GetBasket("y"))->size(), 1u);
  // Delayed arrival completes another pair.
  Exec("insert into x values (4, 40)");
  Table r2 = Exec("select * from [select * from x, y where x.id = y.id] as a");
  EXPECT_EQ(r2.num_rows(), 1u);
  EXPECT_EQ((*engine_.GetBasket("y"))->size(), 0u);
}

TEST_F(SqlTest, GarbageCollectionQuery) {
  // §5: insert into trash [select all from X where X.tag < now() - 1 hour].
  Exec("create basket x (tag timestamp, payload int)");
  Exec("create table trash (tag timestamp, payload int)");
  clock_.SetTime(2 * 3600 * kMicrosPerSecond);  // t = 2h
  Exec("insert into x values (0, 1)");          // stale
  Exec("insert into x values (7000000000, 2)"); // fresh (within the hour)
  Exec("insert into trash [select all from x where x.tag < now() - "
       "interval 1 hour]");
  EXPECT_EQ(Exec("select count(*) n from trash").GetRow(0)[0],
            Value(int64_t{1}));
  EXPECT_EQ((*engine_.GetBasket("x"))->size(), 1u);
}

TEST_F(SqlTest, AggregationOverWindow) {
  // §5 running average with batch processing (top 10 windows).
  Exec("create basket x (payload int)");
  Exec("declare cnt int; declare tot int; set cnt = 0; set tot = 0");
  std::string ins = "insert into x values ";
  for (int i = 1; i <= 10; ++i) {
    if (i > 1) ins += ", ";
    ins += "(" + std::to_string(i) + ")";
  }
  Exec(ins);
  Exec("with z as [select top 10 payload from x] begin "
       "set cnt = cnt + (select count(*) from z); "
       "set tot = tot + (select sum(payload) from z); "
       "end");
  EXPECT_EQ(*engine_.GetVariable("cnt"), Value(int64_t{10}));
  EXPECT_EQ(*engine_.GetVariable("tot"), Value(int64_t{55}));
}

TEST_F(SqlTest, BasketExprRequiresBasket) {
  Exec("create table t (a int)");
  EXPECT_FALSE(ExecStatus("select * from [select * from t] as z").ok());
}

// --------------------------------------------------------------------------
// Continuous queries
// --------------------------------------------------------------------------

TEST_F(SqlTest, RegisterContinuousInsert) {
  Exec("create basket src (payload int)");
  Exec("create basket dst (payload int)");
  auto f = session_.RegisterContinuousQuery(
      "route", "insert into dst select * from [select * from src "
               "where src.payload > 10] as s");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  Exec("insert into src values (5), (50)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ((*engine_.GetBasket("dst"))->size(), 1u);
  // Unmatched tuple remains until some query consumes it.
  EXPECT_EQ((*engine_.GetBasket("src"))->size(), 1u);
  // More input, another firing.
  Exec("insert into src values (99)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ((*engine_.GetBasket("dst"))->size(), 2u);
}

TEST_F(SqlTest, ContinuousSelectWithSink) {
  Exec("create basket src (payload int)");
  size_t seen = 0;
  auto f = session_.RegisterContinuousSelect(
      "watch", "select * from [select * from src] as s",
      [&](const Table& batch) -> Status {
        seen += batch.num_rows();
        return Status::OK();
      });
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  Exec("insert into src values (1), (2), (3)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ((*engine_.GetBasket("src"))->size(), 0u);
}

TEST_F(SqlTest, ContinuousTopWindowThreshold) {
  Exec("create basket src (payload int)");
  Exec("create basket dst (payload int)");
  auto f = session_.RegisterContinuousQuery(
      "windowed",
      "insert into dst select * from [select top 3 from src] as w");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  // The factory's threshold is 3: two tuples do not fire it.
  Exec("insert into src values (1), (2)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ((*engine_.GetBasket("dst"))->size(), 0u);
  Exec("insert into src values (3)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ((*engine_.GetBasket("dst"))->size(), 3u);
}

TEST_F(SqlTest, ExplainDescribesContinuousQuery) {
  Exec("create basket src (payload int)");
  Exec("create basket dst (payload int)");
  const std::string plan = Explain(
      "insert into dst select * from [select top 20 from src order by "
      "payload] as w where w.payload > 100");
  EXPECT_EQ(plan.rfind("continuous plan", 0), 0u) << plan;
  EXPECT_NE(plan.find("source basket 'src', fires at >= 20 tuple(s)"),
            std::string::npos)
      << plan;
  // The outer filter stays past the window: the query's own chain runs it.
  EXPECT_NE(plan.find("residual (payload > 100)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("chain: take src order by payload top 20 → "
                      "filter (payload > 100) → project → insert into dst"),
            std::string::npos)
      << plan;
}

TEST_F(SqlTest, ExplainDescribesOneTimeJoinAggregate) {
  Exec("create table t1 (k int, v int)");
  Exec("create table t2 (k int, w int)");
  const std::string plan = Explain(
      "select a.k, count(*) n from t1 a, t2 b where a.k = b.k and a.v > 5 "
      "group by a.k order by n desc limit 3");
  EXPECT_EQ(plan.rfind("one-time plan", 0), 0u) << plan;
  EXPECT_NE(plan.find("(scan t1), (scan t2) → hash join on k = k"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("(v > 5)"), std::string::npos) << plan;
  EXPECT_NE(plan.find("aggregate group by k [count(*)]"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("sort by n desc"), std::string::npos) << plan;
  EXPECT_NE(plan.find("top 3"), std::string::npos) << plan;
}

TEST_F(SqlTest, ExplainWithBlock) {
  Exec("create basket x (payload int)");
  Exec("create table y (payload int)");
  const std::string plan = Explain(
      "with a as [select * from x] begin "
      "insert into y select * from a where a.payload > 100; end");
  EXPECT_EQ(plan.rfind("continuous plan (direct)", 0), 0u) << plan;
  EXPECT_NE(plan.find("input basket 'x' (fires at >= 1 tuple(s))"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("chain: with a = take x → { read a → "
                      "filter (payload > 100) → project → insert into y }"),
            std::string::npos)
      << plan;
}

TEST_F(SqlTest, ExplainMergeRendersJoinOfBasketScans) {
  Exec("create basket l (k int, v int)");
  Exec("create basket r (k int, w int)");
  const std::string plan =
      Explain("select * from [select * from l, r where l.k = r.k] as m");
  EXPECT_EQ(plan.rfind("continuous plan (direct)", 0), 0u) << plan;
  EXPECT_NE(plan.find("input basket 'l' (fires at >= 1 tuple(s))"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("input basket 'r' (fires at >= 1 tuple(s))"),
            std::string::npos)
      << plan;
  EXPECT_NE(plan.find("chain: merge l, r on k = k"), std::string::npos)
      << plan;
}

// EXPLAIN prepares the statement it renders, so it fails exactly where
// running or registering the statement would.
TEST_F(SqlTest, ExplainReportsBindingErrors) {
  Exec("create basket b (k int, v int)");
  const std::string sql = "select w.nope from [select * from b] as w";
  const Status explained = ExecStatus("explain " + sql);
  const Status executed = ExecStatus(sql);
  const Status registered =
      session_.RegisterContinuousQuery("q", sql).status();
  EXPECT_EQ(explained.code(), StatusCode::kBindError) << explained.ToString();
  EXPECT_EQ(explained.ToString(), executed.ToString());
  EXPECT_EQ(explained.ToString(), registered.ToString());

  EXPECT_FALSE(ExecStatus("explain explain select 1").ok());
}

TEST_F(SqlTest, ExplainHasNoSideEffects) {
  Exec("create basket s (k int, v int)");
  Exec("insert into s values (1, 2), (3, 4)");
  const uint64_t generation = engine_.catalog().generation();
  const std::string plan =
      Explain("insert into newt select * from [select * from s]");
  EXPECT_NE(plan.find("chain: take s → project → insert into newt"),
            std::string::npos)
      << plan;
  EXPECT_EQ((*engine_.GetBasket("s"))->size(), 2u);
  EXPECT_FALSE(engine_.HasBasket("newt"));
  EXPECT_FALSE(engine_.catalog().HasTable("newt"));
  EXPECT_EQ(engine_.catalog().generation(), generation);
}

// Identical aggregate calls fold into one aggregate: HAVING reuses the
// select list's sum(v) instead of folding the column a second time.
TEST_F(SqlTest, IdenticalAggregateCallsFoldIntoOne) {
  Exec("create table t (k int, v int)");
  Exec("insert into t values (1, 5), (1, -2), (2, -4), (2, 1), (3, 0), "
       "(4, 10)");
  const std::string sql =
      "select k, sum(v) s from t group by k having sum(v) > 0";
  const std::string plan = Explain(sql);
  EXPECT_NE(plan.find("aggregate group by k [sum(v)] → having"),
            std::string::npos)
      << plan;
  Table r = Exec(sql + " order by k");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetRow(0)[0], Value(1));
  EXPECT_EQ(r.GetRow(0)[1], Value(3));
  EXPECT_EQ(r.GetRow(1)[0], Value(4));
  EXPECT_EQ(r.GetRow(1)[1], Value(10));
}

TEST_F(SqlTest, ColumnNamedMinuteAndDayAllowed) {
  // Time-unit words are contextual, not reserved.
  Exec("create table t (minute int, day int, hour int)");
  Exec("insert into t values (5, 3, 7)");
  Table r = Exec("select minute, day, hour from t where minute = 5");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetRow(0)[2], Value(7));
}

TEST_F(SqlTest, OneTimeQueryRejectedAsContinuous) {
  Exec("create table t (a int)");
  auto f = session_.RegisterContinuousQuery("bad", "select * from t");
  EXPECT_FALSE(f.ok());
}

TEST_F(SqlTest, OrderByMultipleKeysAndDirections) {
  Exec("create table t (a int, b string)");
  Exec("insert into t values (1,'x'), (2,'x'), (1,'y'), (2,'y')");
  Table r = Exec("select a, b from t order by b desc, a asc");
  ASSERT_EQ(r.num_rows(), 4u);
  EXPECT_EQ(r.GetRow(0)[1], Value("y"));
  EXPECT_EQ(r.GetRow(0)[0], Value(1));
  EXPECT_EQ(r.GetRow(1)[0], Value(2));
  EXPECT_EQ(r.GetRow(2)[1], Value("x"));
}

TEST_F(SqlTest, BetweenAndIsNull) {
  Exec("create table t (a int)");
  Exec("insert into t values (1), (5), (9)");
  Exec("insert into t (a) select a from t where a < 0");  // no rows
  Table r = Exec("select a from t where a between 2 and 8");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetRow(0)[0], Value(5));
  r = Exec("select count(*) n from t where a is not null");
  EXPECT_EQ(r.GetRow(0)[0], Value(int64_t{3}));
}

TEST_F(SqlTest, DistinctStringsPreserveFirstSeenOrder) {
  Exec("create table t (s string)");
  Exec("insert into t values ('b'), ('a'), ('b'), ('c'), ('a')");
  Table r = Exec("select distinct s from t");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.GetRow(0)[0], Value("b"));
  EXPECT_EQ(r.GetRow(1)[0], Value("a"));
  EXPECT_EQ(r.GetRow(2)[0], Value("c"));
}

TEST_F(SqlTest, NegativeNumbersAndUnaryMinus) {
  Exec("create table t (a int)");
  Exec("insert into t values (-3), (4)");
  Table r = Exec("select -a neg, abs(a) mag from t order by a");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetRow(0)[0], Value(3));
  EXPECT_EQ(r.GetRow(0)[1], Value(3));
  EXPECT_EQ(r.GetRow(1)[0], Value(-4));
}

TEST_F(SqlTest, LimitAfterOrder) {
  Exec("create table t (a int)");
  Exec("insert into t values (5), (1), (9), (3)");
  Table r = Exec("select a from t order by a desc limit 2");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetRow(0)[0], Value(9));
  EXPECT_EQ(r.GetRow(1)[0], Value(5));
}

TEST_F(SqlTest, BasketToBasketInsertRestampsArrival) {
  Exec("create basket a (v int)");
  Exec("create basket b (v int)");
  clock_.SetTime(100);
  Exec("insert into a values (7)");
  clock_.SetTime(500);
  Exec("insert into b select * from [select * from a] as z");
  Table r = Exec("select z.dc_arrival from [select * from b] as z");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetRow(0)[0], Value(int64_t{500}));
}

TEST_F(SqlTest, JoinBasketPeekWithTable) {
  // A basket read outside brackets joins with a persistent table — the
  // "streams and persistent tables interchangeably" capability.
  Exec("create basket readings (sensor int, temp int)");
  Exec("create table sensors (id int, name string)");
  Exec("insert into sensors values (1, 'roof'), (2, 'cellar')");
  Exec("insert into readings values (1, 30), (2, 12), (1, 31)");
  Table r = Exec(
      "select s.name, count(*) n from readings r, sensors s "
      "where r.sensor = s.id group by s.name order by s.name");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetRow(0)[0], Value("cellar"));
  EXPECT_EQ(r.GetRow(0)[1], Value(int64_t{1}));
  EXPECT_EQ(r.GetRow(1)[1], Value(int64_t{2}));
  // The peek consumed nothing.
  EXPECT_EQ((*engine_.GetBasket("readings"))->size(), 3u);
}

TEST_F(SqlTest, AvgOverWindowViaHaving) {
  Exec("create basket pos (seg int, speed int)");
  Exec("create table congested (seg int, lav double)");
  Exec("insert into pos values (1, 30), (1, 34), (2, 80), (2, 90), (3, 20)");
  Exec("insert into congested select z.seg, avg(z.speed) lav from "
       "[select * from pos] as z group by z.seg having avg(z.speed) < 40");
  Table r = Exec("select seg from congested order by seg");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.GetRow(0)[0], Value(1));
  EXPECT_EQ(r.GetRow(1)[0], Value(3));
  EXPECT_EQ((*engine_.GetBasket("pos"))->size(), 0u);
}

TEST_F(SqlTest, ConstantFoldingInPredicate) {
  Exec("create table t (a int)");
  Exec("insert into t values (100), (4000)");
  Table r = Exec("select a from t where a > 10 * 60 + 400");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.GetRow(0)[0], Value(4000));
}

TEST_F(SqlTest, ContinuousQueryChain) {
  // Query chain topology (§6.1): src -> q1 -> mid -> q2 -> out.
  Exec("create basket src (payload int)");
  Exec("create basket mid (payload int)");
  Exec("create basket outb (payload int)");
  ASSERT_TRUE(session_
                  .RegisterContinuousQuery(
                      "q1", "insert into mid select * from [select * from src "
                            "where src.payload > 10] as s")
                  .ok());
  ASSERT_TRUE(session_
                  .RegisterContinuousQuery(
                      "q2", "insert into outb select * from [select * from mid "
                            "where mid.payload < 100] as s")
                  .ok());
  Exec("insert into src values (5), (50), (500)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  auto outb = *engine_.GetBasket("outb");
  ASSERT_EQ(outb->size(), 1u);
  EXPECT_EQ(outb->Peek().GetRow(0)[0], Value(50));
}


// --------------------------------------------------------------------------
// Prepared statements: bound at registration, run on every firing
// --------------------------------------------------------------------------

// Sink that accumulates one rendered line per result row.
core::Emitter::Sink CollectRows(std::vector<std::string>* out) {
  return [out](const Table& t) -> Status {
    for (size_t i = 0; i < t.num_rows(); ++i) {
      std::string line;
      const Row row = t.GetRow(i);
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) line += "|";
        line += row[c].ToString();
      }
      out->push_back(std::move(line));
    }
    return Status::OK();
  };
}

std::vector<std::string> Lines(const Table& t) {
  std::vector<std::string> out;
  EXPECT_TRUE(CollectRows(&out)(t).ok());
  return out;
}

TEST_F(SqlTest, ContinuousResidualSeesLaterSet) {
  Exec("create basket b (a int)");
  Exec("declare lo int");
  Exec("set lo = 10");
  std::vector<std::string> got;
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q",
                      "select * from [select * from b where a > lo] as w "
                      "where w.a < lo + 100",
                      CollectRows(&got))
                  .ok());
  Exec("insert into b values (5), (15), (500)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ(got, (std::vector<std::string>{"15"}));
  // (5) stayed in b: the window consumes only what it matched. After the
  // SET the next firing's window and outer residual both see lo = 0.
  Exec("set lo = 0");
  Exec("insert into b values (6)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ(got, (std::vector<std::string>{"15", "5", "6"}));
}

TEST_F(SqlTest, DirectJoinSurvivesTableRecreate) {
  Exec("create basket b (a int, v int)");
  Exec("create table t (a int, name string)");
  Exec("insert into t values (1, 'one'), (2, 'two')");
  std::vector<std::string> got;
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q",
                      "select x.v, t.name from [select * from b] as x, t "
                      "where x.a = t.a",
                      CollectRows(&got))
                  .ok());
  Exec("insert into b values (1, 10)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ(got, (std::vector<std::string>{"10|'one'"}));
  // Same name, columns reordered: the next firing binds the new table.
  Exec("drop table t");
  Exec("create table t (name string, a int)");
  Exec("insert into t values ('uno', 1), ('dos', 2)");
  Exec("insert into b values (2, 20)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ(got, (std::vector<std::string>{"10|'one'", "20|'dos'"}));
}

TEST(PreparedSpillTest, PassThroughWindowTakesSpilledRows) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("datacell_sql_spill_" + std::to_string(::getpid()) + ".pages"))
          .string();
  auto pager = storage::Pager::Open(path);
  ASSERT_TRUE(pager.ok()) << pager.status().ToString();
  storage::BufferPool pool(std::move(*pager), 8);
  SimulatedClock clock(0);
  core::Engine engine(&clock);
  Session session(&engine);
  constexpr int64_t kTotal = 300;
  // Two baskets filled alike past their watermark: one consumed by a
  // pass-through window, one by erasing every row.
  std::vector<core::BasketPtr> baskets;
  for (const char* name : {"s", "ref"}) {
    ASSERT_TRUE(
        session.Execute(std::string("create basket ") + name + " (v int)").ok());
    core::BasketPtr b = *engine.GetBasket(name);
    b->SetCapacity(100, 50);
    b->AttachSpill(&pool);
    for (int64_t off = 0; off < kTotal; off += 50) {
      Table batch(Schema({{"v", DataType::kInt64}}));
      for (int64_t i = off; i < off + 50; ++i) batch.column(0).AppendInt(i);
      ASSERT_TRUE(b->Append(batch, 0).ok());
    }
    ASSERT_GT(b->spilled_rows(), 0u);
    baskets.push_back(b);
  }
  auto r = session.Execute("select w.v from [select * from s] as w");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), static_cast<size_t>(kTotal));
  for (int64_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(r->GetRow(static_cast<size_t>(i))[0], Value(i)) << "row " << i;
  }
  EXPECT_TRUE(baskets[0]->empty());

  SelVector all(kTotal);
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<uint32_t>(i);
  ASSERT_TRUE(baskets[1]->EraseRows(all).ok());
  const core::Basket::Stats taken = baskets[0]->stats();
  const core::Basket::Stats erased = baskets[1]->stats();
  EXPECT_EQ(taken.consumed, static_cast<uint64_t>(kTotal));
  EXPECT_EQ(taken.consumed, erased.consumed);
  EXPECT_EQ(taken.faulted, taken.spilled);
  EXPECT_EQ(pool.pager().pages_in_use(), 0u);
  std::filesystem::remove(path);
}

// Replaces every occurrence of `from` in `text` with `to`.
std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  for (size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

// EXPLAIN's chain line is the chain the registered query `name` runs, as
// its dc_plans row lists it minus a trailing sink: the direct factory's,
// or in shared mode the leaf's, which reads the leaf basket mqo.q.<name>
// in place of the source basket. An inlined leaf's line is marked
// `chain (inlined):` and lists the operators after its take, which the
// fused transition runs. A direct query in shared mode reads a replica
// leaf mqo.q.<name>.<basket> for each basket.
void ExpectExplainChainRuns(Session* session, const std::string& name,
                            const std::string& sql) {
  SCOPED_TRACE(name);
  auto plan = session->Execute("explain " + sql);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_GE(plan->num_rows(), 2u);
  const std::string head = plan->GetRow(0)[0].string_value();
  const std::string chain_line =
      plan->GetRow(plan->num_rows() - 1)[0].string_value();
  const std::string inlined = "  chain (inlined): ";
  const bool is_inlined = chain_line.rfind(inlined, 0) == 0;
  const std::string prefix = is_inlined ? inlined : "  chain: ";
  ASSERT_EQ(chain_line.rfind(prefix, 0), 0u) << chain_line;
  auto rows = session->Execute(
      "select kind, detail from dc_plans where query = '" + name +
      "' and kind <> 'node'");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->num_rows(), 1u);
  const std::string kind = rows->GetRow(0)[0].string_value();
  std::string detail = rows->GetRow(0)[1].string_value();
  const std::string sink = " → sink";
  if (detail.size() >= sink.size() &&
      detail.compare(detail.size() - sink.size(), sink.size(), sink) == 0) {
    detail.resize(detail.size() - sink.size());
  }
  detail = ReplaceAll(detail, "mqo.q." + name + ".", "");
  const std::string source_head = "continuous plan (source basket '";
  if (is_inlined) {
    EXPECT_TRUE(session->sharing_enabled());
    EXPECT_EQ(kind, "leaf");
  } else if (session->sharing_enabled() && head.rfind(source_head, 0) == 0) {
    EXPECT_EQ(kind, "leaf");
    const size_t begin = source_head.size();
    const std::string source =
        head.substr(begin, head.find('\'', begin) - begin);
    detail = ReplaceAll(detail, "mqo.q." + name, source);
  } else {
    EXPECT_EQ(kind, "direct");
  }
  EXPECT_EQ(chain_line.substr(prefix.size()), detail);
}

// One continuous query per source basket, so queries never compete: with
// sharing on (shared trie, replica leaves) every output must be
// byte-identical to the direct wiring.
TEST(PreparedCorpusTest, SharingOnMatchesSharingOff) {
  struct Query {
    std::string name;
    std::string sql;
    bool select;  // else a statement that writes a table or basket
  };
  const std::vector<Query> corpus = {
      {"top", "select * from [select top 2 from b_top order by v desc] as w",
       true},
      {"order", "select * from [select * from b_order order by v] as w", true},
      {"resid",
       "select w.k, w.v from [select * from b_resid where v > 1 and k <> 3] "
       "as w where w.v < 50 and w.k + w.v > 4",
       true},
      {"group",
       "select k, count(*) n, sum(v) s from [select * from b_group where "
       "v > 0] as w group by k having count(*) > 1",
       true},
      {"distinct", "select distinct k from [select * from b_distinct] as w",
       true},
      {"outer_order",
       "select k, v from [select * from b_outer where v > 2] as w "
       "order by v desc limit 2",
       true},
      {"ins_basket",
       "insert into o_basket select k, v from [select * from b_ins1 where "
       "v > 1] as w",
       false},
      {"ins_table",
       "insert into o_table select k, v from [select * from b_ins2] as w",
       false},
      {"ins_cols",
       "insert into o_cols (v) select v from [select * from b_ins3] as w",
       false},
      {"merge",
       "select * from [select * from m_left, m_right where "
       "m_left.k = m_right.k] as w",
       true},
      {"join",
       "select x.v, t_names.name from [select * from b_join] as x, t_names "
       "where x.k = t_names.k",
       true},
      {"with",
       "with w as [select * from b_with] begin "
       "set mx = (select max(v) from w); "
       "insert into o_with select k, v from w where v = mx; "
       "insert into o_with select k, (select min(v) from w) from w "
       "where k = 1; end",
       false},
  };
  const std::vector<std::string> sources = {
      "b_top", "b_order", "b_resid", "b_group", "b_distinct", "b_outer",
      "b_ins1", "b_ins2", "b_ins3", "b_join", "b_with", "m_left"};
  const std::vector<std::string> batches = {
      "(1, 5), (2, 20), (3, 7), (1, 3), (2, 40), (4, 1)",
      "(4, 60), (1, 9), (3, 2), (2, 2)",
      "(1, 1), (2, 33), (2, 30), (5, 8), (1, 70)",
  };

  auto run = [&](bool sharing) {
    SimulatedClock clock(0);
    core::Engine engine(&clock);
    Session session(&engine);
    auto exec = [&](const std::string& sql) {
      auto r = session.Execute(sql);
      EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
      return r.ok() ? *r : Table();
    };
    for (const std::string& b : sources) {
      exec("create basket " + b + " (k int, v int)");
    }
    exec("create basket m_right (k int, w int)");
    exec("create basket o_basket (k int, v int)");
    exec("create table o_table (k int, v int)");
    exec("create table o_cols (k int, v int)");
    exec("create table o_with (k int, v int)");
    exec("create table t_names (k int, name string)");
    exec("insert into t_names values (1, 'one'), (2, 'two'), (4, 'four')");
    exec("declare mx int");
    session.set_sharing_enabled(sharing);
    std::map<std::string, std::vector<std::string>> out;
    for (const Query& q : corpus) {
      auto f = q.select ? session.RegisterContinuousSelect(
                              q.name, q.sql, CollectRows(&out[q.name]))
                        : session.RegisterContinuousQuery(q.name, q.sql);
      EXPECT_TRUE(f.ok()) << q.name << ": " << f.status().ToString();
    }
    for (const Query& q : corpus) {
      ExpectExplainChainRuns(&session, q.name, q.sql);
    }
    for (size_t i = 0; i < batches.size(); ++i) {
      for (const std::string& b : sources) {
        exec("insert into " + b + " values " + batches[i]);
      }
      exec("insert into m_right values (" + std::to_string(i + 1) +
           ", 100), (2, " + std::to_string(200 + i) + ")");
      clock.Advance(10);
      EXPECT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
    }
    out["o_basket"] = Lines(exec("select k, v from o_basket"));
    out["o_table"] = Lines(exec("select * from o_table"));
    out["o_cols"] = Lines(exec("select * from o_cols"));
    out["o_with"] = Lines(exec("select * from o_with"));
    out["mx"] = Lines(exec("select mx"));
    return out;
  };
  const auto off = run(false);
  const auto on = run(true);
  ASSERT_EQ(on.size(), off.size());
  for (const auto& [name, lines] : off) {
    EXPECT_FALSE(lines.empty()) << name;
    EXPECT_EQ(on.at(name), lines) << name;
  }
}

TEST_F(SqlTest, BindingErrorsFailRegistration) {
  Exec("create basket b (k int, v int)");
  std::vector<std::string> got;
  auto star = session_.RegisterContinuousSelect(
      "q1", "select * from [select * from b] as w group by k",
      CollectRows(&got));
  EXPECT_EQ(star.status().code(), StatusCode::kBindError);
  auto column = session_.RegisterContinuousSelect(
      "q2", "select w.nosuch from [select * from b] as w", CollectRows(&got));
  EXPECT_EQ(column.status().code(), StatusCode::kBindError);
  auto table = session_.RegisterContinuousQuery(
      "q3", "insert into b select * from [select * from nosuch] as w");
  EXPECT_EQ(table.status().code(), StatusCode::kBindError);
  EXPECT_EQ(engine_.scheduler().num_transitions(), 0u);
  EXPECT_FALSE(session_.optimizer().HasQuery("q1"));
}

// Prepared leaves fire on three scheduler workers at once: every query's
// concatenated output equals the cooperative single-threaded run.
TEST(PreparedConcurrencyTest, ThreeWorkersMatchCooperative) {
  std::vector<std::string> queries;
  for (int i = 0; i < 6; ++i) {
    queries.push_back("select * from [select * from s where a < 600 and b = " +
                      std::to_string(i) + "]");
  }
  queries.push_back(
      "select b, count(*), sum(a) from [select * from s where a >= 700] "
      "group by b");
  queries.push_back(
      "select x.a, t.name from [select * from s] as x, t "
      "where x.b = t.b and x.a < 50");
  auto run = [&](size_t workers) {
    core::Engine engine(SystemClock::Get(), workers);
    Session session(&engine);
    EXPECT_TRUE(session.Execute("create basket s (a int, b int)").ok());
    EXPECT_TRUE(session.Execute("create table t (b int, name string)").ok());
    EXPECT_TRUE(
        session.Execute("insert into t values (0, 'zero'), (3, 'three')").ok());
    session.set_sharing_enabled(true);
    std::vector<std::vector<std::string>> out(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(session
                      .RegisterContinuousSelect("q" + std::to_string(i),
                                                queries[i], CollectRows(&out[i]))
                      .ok());
    }
    core::Scheduler& sched = engine.scheduler();
    core::BasketPtr s = *engine.GetBasket("s");
    auto quiet = [&] {
      for (const std::string& name : engine.ListBaskets()) {
        if (!(*engine.GetBasket(name))->empty()) return false;
      }
      return sched.Idle();
    };
    if (workers > 1) {
      EXPECT_TRUE(sched.Start().ok());
    }
    for (int d = 0; d < 40; ++d) {
      Table batch(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
      for (int64_t i = 0; i < 64; ++i) {
        batch.column(0).AppendInt((d * 64 + i) * 37 % 1000);
        batch.column(1).AppendInt(i % 7);
      }
      EXPECT_TRUE(s->Append(batch, 0).ok());
      if (workers == 1) {
        EXPECT_TRUE(sched.RunUntilQuiescent().ok());
      }
    }
    for (int i = 0; i < 60000 && workers > 1 && !quiet(); ++i) {
      SystemClock::Get()->SleepFor(500);
    }
    if (workers > 1) sched.Stop();
    EXPECT_TRUE(sched.last_error().ok());
    return out;
  };
  const auto one = run(1);
  const auto three = run(3);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_FALSE(one[i].empty()) << queries[i];
    if (queries[i].find("group by") != std::string::npos) {
      // Firings may batch deliveries differently: compare per-key totals.
      auto totals = [](const std::vector<std::string>& lines) {
        std::map<std::string, std::pair<int64_t, int64_t>> t;
        for (const std::string& line : lines) {
          const size_t p1 = line.find('|');
          const size_t p2 = line.find('|', p1 + 1);
          auto& [n, sum] = t[line.substr(0, p1)];
          n += std::stoll(line.substr(p1 + 1, p2 - p1 - 1));
          sum += std::stoll(line.substr(p2 + 1));
        }
        return t;
      };
      EXPECT_EQ(totals(three[i]), totals(one[i])) << queries[i];
    } else {
      EXPECT_EQ(three[i], one[i]) << queries[i];
    }
  }
}

}  // namespace
}  // namespace datacell::sql
