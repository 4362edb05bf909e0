// EXPLAIN golden tests: the optimized-plan rendering is part of the
// engine's contract. Each scenario builds a fresh engine, registers a
// standing-query set, and snapshots EXPLAIN output (plus the shared
// transitions and the trie nodes dc_plans lists, which prove how the
// optimizer factored the set).
//
// Regenerate with:  UPDATE_GOLDENS=1 ./plan_golden_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "lroad/queries_sql.h"
#include "sql/session.h"
#include "util/clock.h"

#ifndef DATACELL_GOLDEN_DIR
#define DATACELL_GOLDEN_DIR "tests/goldens"
#endif

namespace datacell::sql {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(DATACELL_GOLDEN_DIR) + "/" + name + ".golden";
}

void CheckGolden(const std::string& name, const std::string& actual) {
  const std::string path = GoldenPath(name);
  if (std::getenv("UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with UPDATE_GOLDENS=1 to create)";
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str(), actual) << "golden mismatch for " << name
                               << "; regenerate with UPDATE_GOLDENS=1 if "
                                  "the change is intentional";
}

class GoldenFixture : public ::testing::Test {
 protected:
  GoldenFixture() : clock_(0), engine_(&clock_), session_(&engine_) {}

  void Exec(const std::string& sql) {
    auto r = session_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  std::string Explain(const std::string& sql) {
    auto r = session_.Execute("explain " + sql);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::string text;
    if (!r.ok()) return text;
    for (size_t i = 0; i < r->num_rows(); ++i) {
      text += r->GetRow(i)[0].ToString();
      text += "\n";
    }
    return text;
  }

  // The factoring proof: the sorted shared transition names (one fused
  // walk per source basket), then the trie nodes that `queries` ride, as
  // dc_plans lists them.
  std::string SharedNet(const std::set<std::string>& queries) {
    std::vector<std::string> names;
    for (const auto& t : engine_.scheduler().TransitionStatsSnapshot()) {
      if (t.name.rfind("mqo.", 0) == 0) names.push_back(t.name);
    }
    std::sort(names.begin(), names.end());
    std::string out = "-- shared transitions --\n";
    for (const std::string& n : names) out += n + "\n";
    auto r = session_.Execute(
        "select query, stage, detail, shared_by from dc_plans "
        "where kind = 'node'");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::set<std::string> nodes;
    for (size_t i = 0; r.ok() && i < r->num_rows(); ++i) {
      const Row row = r->GetRow(i);
      if (queries.count(row[0].string_value()) == 0) continue;
      nodes.insert(row[1].string_value() + ": " + row[2].string_value() +
                   " shared_by=" + row[3].ToString());
    }
    out += "-- trie nodes --\n";
    for (const std::string& n : nodes) out += n + "\n";
    return out;
  }

  SimulatedClock clock_;
  core::Engine engine_;
  Session session_;
};

TEST_F(GoldenFixture, SharedPrefixFactoring) {
  // Three queries with a common scan+filter prefix (a > 10) and one
  // private conjunct each: the prefix must factor into one root node with
  // three branch nodes, all walked by one fused transition.
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  for (int i = 1; i <= 3; ++i) {
    auto f = session_.RegisterContinuousSelect(
        "q" + std::to_string(i),
        "select * from [select * from s where a > 10 and b = " +
            std::to_string(i) + "]",
        nullptr);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
  }
  std::string out = Explain(
      "select * from [select * from s where a > 10 and b = 1]");
  out += SharedNet({"q1", "q2", "q3"});
  CheckGolden("shared_prefix_factoring", out);
}

TEST_F(GoldenFixture, IdenticalQueriesSingleChain) {
  // N queries with the *whole* filter in common: one trie node, no branch
  // nodes at all.
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  for (int i = 1; i <= 4; ++i) {
    auto f = session_.RegisterContinuousSelect(
        "q" + std::to_string(i),
        "select * from [select * from s where a > 10 and b < 7]", nullptr);
    ASSERT_TRUE(f.ok()) << f.status().ToString();
  }
  std::string out =
      Explain("select * from [select * from s where a > 10 and b < 7]");
  out += SharedNet({"q1", "q2", "q3", "q4"});
  CheckGolden("identical_queries_single_chain", out);
}

TEST_F(GoldenFixture, SelectivityOrderedPushdown) {
  // eq (0.10) before range (0.33) before ne (0.90), regardless of the
  // order they were written in.
  Exec("create basket s (a int, b int, c int)");
  session_.set_sharing_enabled(true);
  std::string out = Explain(
      "select * from [select * from s where a <> 1 and c > 3 and b = 2]");
  CheckGolden("selectivity_ordered_pushdown", out);
}

TEST_F(GoldenFixture, SharingDisabledRendering) {
  Exec("create basket s (a int)");
  std::string out =
      Explain("select * from [select * from s where a > 10]");
  CheckGolden("sharing_disabled", out);
}

TEST_F(GoldenFixture, OneTimeJoinPlan) {
  Exec("create table orders (id int, cust string)");
  Exec("create table payments (oid int, amt double)");
  std::string out = Explain(
      "select orders.id, payments.amt from orders, payments "
      "where orders.id = payments.oid and payments.amt > 100");
  CheckGolden("one_time_join", out);
}

TEST_F(GoldenFixture, NonTrivialWindowKeepsOuterFilterPostWindow) {
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  std::string out = Explain(
      "select * from [select top 5 from s where a > 10 order by b] as w "
      "where w.b < 100");
  CheckGolden("window_blocks_outer_pushdown", out);
}

TEST_F(GoldenFixture, LinearRoadChains) {
  // The full EXPLAIN of every one of the 38 Linear Road statements on a
  // fresh session: each statement's header and its prepared chain.
  for (const std::string& ddl : lroad::LinearRoadSchemaSql()) Exec(ddl);
  std::string out;
  for (const lroad::LogicalQuery& q : lroad::LinearRoadQueriesSql()) {
    out += std::string("-- ") + q.collection + "/" + q.name + " --\n";
    out += Explain(q.sql);
  }
  CheckGolden("lroad_explain", out);
}

TEST_F(GoldenFixture, ChainShapes) {
  // Statement shapes the other goldens leave out: a nested-loop join, a
  // no-FROM select, INSERT .. VALUES, SET, DISTINCT with ORDER BY and a
  // limit, a window whose WHERE holds a scalar subquery, a `top n` window
  // joined with a table (its input fires at n tuples) and an INSERT with a
  // column list.
  Exec("create table t (v int, w int)");
  Exec("create basket s (v int)");
  const char* shapes[] = {
      "select * from t a, t b where a.v < b.v",
      "select 1",
      "insert into t values (1, 2)",
      "set x = 1",
      "select distinct v from t order by v limit 3",
      "select * from [select * from s where v > (select max(v) from t)]",
      "select count(*) from [select top 4 from s order by v] as x, t "
      "where x.v = t.w",
      "insert into t (w) select v from [select * from s]",
  };
  std::string out;
  for (const char* sql : shapes) {
    out += std::string("-- ") + sql + " --\n";
    out += Explain(sql);
  }
  CheckGolden("chain_shapes", out);
}

}  // namespace
}  // namespace datacell::sql
