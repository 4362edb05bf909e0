// Validates the declarative Linear Road formulation (queries_sql.h): the
// whole 38-query workload is expressible in this repository's SQL dialect
// — every statement parses, every continuous statement registers as a
// factory against the declared schema, and one executable slice runs end
// to end.

#include <gtest/gtest.h>

#include <map>

#include "core/scheduler.h"
#include "lroad/queries_sql.h"
#include "sql/parser.h"
#include "sql/session.h"
#include "util/clock.h"

namespace datacell::lroad {
namespace {

class LroadSqlTest : public ::testing::Test {
 protected:
  LroadSqlTest() : clock_(0), engine_(&clock_), session_(&engine_) {}

  void ApplySchema() {
    for (const std::string& ddl : LinearRoadSchemaSql()) {
      auto st = session_.Execute(ddl);
      ASSERT_TRUE(st.ok()) << ddl << " -> " << st.status().ToString();
    }
  }

  SimulatedClock clock_;
  core::Engine engine_;
  sql::Session session_;
};

TEST_F(LroadSqlTest, ThirtyEightQueriesInSevenCollections) {
  const auto& queries = LinearRoadQueriesSql();
  EXPECT_EQ(queries.size(), 38u);
  std::map<std::string, int> per_collection;
  for (const LogicalQuery& q : queries) per_collection[q.collection]++;
  EXPECT_EQ(per_collection["Q1"], 3);
  EXPECT_EQ(per_collection["Q2"], 5);
  EXPECT_EQ(per_collection["Q3"], 5);
  EXPECT_EQ(per_collection["Q4"], 1);
  EXPECT_EQ(per_collection["Q5"], 4);
  EXPECT_EQ(per_collection["Q6"], 2);
  EXPECT_EQ(per_collection["Q7"], 18);
}

TEST_F(LroadSqlTest, EveryQueryParses) {
  for (const LogicalQuery& q : LinearRoadQueriesSql()) {
    SCOPED_TRACE(std::string(q.collection) + "/" + q.name);
    auto stmt = sql::ParseOne(q.sql);
    ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
    // The declared continuous/one-time nature matches the basket
    // expressions actually present.
    EXPECT_EQ(sql::IsContinuous(**stmt), q.continuous);
  }
}

TEST_F(LroadSqlTest, EveryQueryExplains) {
  ApplySchema();
  for (const LogicalQuery& q : LinearRoadQueriesSql()) {
    SCOPED_TRACE(std::string(q.collection) + "/" + q.name);
    auto plan = session_.Execute("explain " + std::string(q.sql));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_GT(plan->num_rows(), 0u);
    const std::string first = plan->GetRow(0)[0].string_value();
    EXPECT_EQ(first.rfind("continuous plan", 0) == 0, q.continuous) << first;
  }
}

TEST_F(LroadSqlTest, ContinuousQueriesRegisterAgainstSchema) {
  ApplySchema();
  size_t registered = 0;
  for (const LogicalQuery& q : LinearRoadQueriesSql()) {
    if (!q.continuous) continue;
    SCOPED_TRACE(std::string(q.collection) + "/" + q.name);
    auto f = session_.RegisterContinuousQuery(
        std::string(q.collection) + "_" + q.name, q.sql);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
    ++registered;
  }
  EXPECT_GE(registered, 10u);
  EXPECT_EQ(engine_.scheduler().num_transitions(), registered);
}

TEST_F(LroadSqlTest, ExecutableSliceRunsEndToEnd) {
  // Run the router, zero-speed filter and balance answering declaratively.
  ApplySchema();
  const auto& queries = LinearRoadQueriesSql();
  auto find = [&](const char* name) -> const LogicalQuery& {
    for (const LogicalQuery& q : queries) {
      if (std::string(q.name) == name) return q;
    }
    ADD_FAILURE() << "missing query " << name;
    return queries[0];
  };
  ASSERT_TRUE(
      session_.RegisterContinuousQuery("route", find("route_by_type").sql).ok());
  ASSERT_TRUE(session_
                  .RegisterContinuousQuery("zs", find("zero_speed_reports").sql)
                  .ok());
  ASSERT_TRUE(
      session_.RegisterContinuousQuery("bal", find("answer_balance").sql).ok());

  // Two position reports (one stopped) and one balance request.
  ASSERT_TRUE(session_
                  .Execute("insert into lr_in values "
                           "(0, 10, 1, 0, 0, 1, 0, 3, 16000, -1, 0), "
                           "(0, 10, 2, 55, 0, 2, 0, 4, 22000, -1, 0), "
                           "(2, 11, 1, 0, 0, 0, 0, 0, 0, 900, 0)")
                  .ok());
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());

  // Routed: both reports left lr_in; the stopped one reached lr_zero_speed.
  EXPECT_EQ((*engine_.GetBasket("lr_in"))->size(), 0u);
  EXPECT_EQ((*engine_.GetBasket("lr_zero_speed"))->size(), 1u);
  auto answers = session_.Execute("select qid, vid from lr_out_balance");
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->num_rows(), 1u);
  EXPECT_EQ(answers->GetRow(0)[0], Value(900));
  EXPECT_EQ(answers->GetRow(0)[1], Value(1));
}

}  // namespace
}  // namespace datacell::lroad
