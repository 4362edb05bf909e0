// Conjunct fingerprints, rewrite passes, cost model and the multi-query
// optimizer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "sql/plan/builder.h"
#include "sql/plan/cost.h"
#include "sql/plan/optimizer.h"
#include "sql/plan/plan.h"
#include "sql/plan/rewrite.h"
#include "sql/session.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/simd.h"

namespace datacell::sql::plan {
namespace {

// ---------------------------------------------------------------------------
// Normalization & fingerprints
// ---------------------------------------------------------------------------

TEST(RewriteTest, MirroredComparisonsFingerprintEqual) {
  // 10 > x  and  x < 10
  ExprPtr a = Expr::Bin(BinaryOp::kGt, Expr::Lit(Value(10)), Expr::Col("x"));
  ExprPtr b = Expr::Bin(BinaryOp::kLt, Expr::Col("x"), Expr::Lit(Value(10)));
  EXPECT_EQ(NormalizePredicate(a)->ToString(),
            NormalizePredicate(b)->ToString());
  EXPECT_EQ(FingerprintHex(NormalizePredicate(a)->ToString()),
            FingerprintHex(NormalizePredicate(b)->ToString()));
}

TEST(RewriteTest, CommutativeOperandsOrdered) {
  ExprPtr ab = Expr::Bin(BinaryOp::kAnd, Expr::Col("a"), Expr::Col("b"));
  ExprPtr ba = Expr::Bin(BinaryOp::kAnd, Expr::Col("b"), Expr::Col("a"));
  EXPECT_EQ(NormalizePredicate(ab)->ToString(),
            NormalizePredicate(ba)->ToString());
}

TEST(RewriteTest, SplitAndRebuildConjuncts) {
  ExprPtr p = Expr::Bin(
      BinaryOp::kAnd,
      Expr::Bin(BinaryOp::kAnd, Expr::Col("a"), Expr::Col("b")),
      Expr::Col("c"));
  std::vector<ExprPtr> parts;
  SplitConjuncts(p, &parts);
  ASSERT_EQ(parts.size(), 3u);
  ExprPtr back = AndAll(parts);
  std::vector<ExprPtr> again;
  SplitConjuncts(back, &again);
  EXPECT_EQ(again.size(), 3u);
  // Null predicate: no conjuncts, AndAll of nothing is null.
  std::vector<ExprPtr> none;
  SplitConjuncts(nullptr, &none);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(AndAll({}), nullptr);
}

TEST(RewriteTest, NowIsNotStreamStatic) {
  ExprPtr static_p =
      Expr::Bin(BinaryOp::kLt, Expr::Col("x"), Expr::Lit(Value(10)));
  ExprPtr timed = Expr::Bin(BinaryOp::kLt, Expr::Col("ts"),
                            Expr::Call("now", {}));
  EXPECT_TRUE(IsStreamStatic(*static_p));
  EXPECT_FALSE(IsStreamStatic(*timed));
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(CostModelTest, ShapeHeuristics) {
  ExprPtr eq = Expr::Bin(BinaryOp::kEq, Expr::Col("a"), Expr::Lit(Value(1)));
  ExprPtr ne = Expr::Bin(BinaryOp::kNe, Expr::Col("a"), Expr::Lit(Value(1)));
  ExprPtr lt = Expr::Bin(BinaryOp::kLt, Expr::Col("a"), Expr::Lit(Value(1)));
  EXPECT_LT(CostModel::HeuristicSelectivity(*eq),
            CostModel::HeuristicSelectivity(*lt));
  EXPECT_LT(CostModel::HeuristicSelectivity(*lt),
            CostModel::HeuristicSelectivity(*ne));
}

TEST(CostModelTest, ObservationsOverrideAndDriftSelfClears) {
  CostModel cost;
  ExprPtr eq = Expr::Bin(BinaryOp::kEq, Expr::Col("a"), Expr::Lit(Value(1)));
  const std::string fp = "deadbeefdeadbeef";
  const double heuristic = cost.EstimateSelectivity(*eq, fp);
  EXPECT_DOUBLE_EQ(heuristic, 0.10);

  // Below the sample floor the heuristic stands.
  cost.RecordObserved(fp, 100, 90);
  EXPECT_DOUBLE_EQ(cost.EstimateSelectivity(*eq, fp), 0.10);
  EXPECT_FALSE(cost.Drifted(heuristic, fp));

  // Enough samples, 90% pass rate: drifted vs the 0.10 the net was built
  // with; adopting the observed value clears the trigger.
  cost.RecordObserved(fp, 1000, 900);
  EXPECT_DOUBLE_EQ(cost.EstimateSelectivity(*eq, fp), 0.9);
  EXPECT_TRUE(cost.Drifted(heuristic, fp));
  EXPECT_FALSE(cost.Drifted(cost.EstimateSelectivity(*eq, fp), fp));
}

// ---------------------------------------------------------------------------
// Plan compilation
// ---------------------------------------------------------------------------

// Sink that accumulates one rendered line per result row.
core::Emitter::Sink Collect(std::vector<std::string>* out) {
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

class PlanFixture : public ::testing::Test {
 protected:
  PlanFixture() : clock_(0), engine_(&clock_), session_(&engine_) {}

  void Exec(const std::string& sql) {
    auto r = session_.Execute(sql);
    ASSERT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
  }

  Result<CompiledQuery> Compile(const std::string& sql) {
    auto stmt = ParseOne(sql);
    EXPECT_TRUE(stmt.ok());
    return CompileContinuous(&engine_, "q",
                             std::shared_ptr<Statement>(std::move(*stmt)),
                             cost_);
  }

  size_t CountTransitions(const std::string& prefix) {
    size_t n = 0;
    for (const auto& t : engine_.scheduler().TransitionStatsSnapshot()) {
      if (t.name.rfind(prefix, 0) == 0) ++n;
    }
    return n;
  }

  // dc_plans rows of one query's trie node: {rows_in, rows_out}.
  std::vector<int64_t> NodeCounts(const std::string& query,
                                  const std::string& node) {
    auto r = session_.Execute(
        "select rows_in, rows_out from dc_plans where query = '" + query +
        "' and stage = '" + node + "' and kind = 'node'");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok() || r->num_rows() != 1) return {};
    return {r->GetRow(0)[0].int_value(), r->GetRow(0)[1].int_value()};
  }

  SimulatedClock clock_;
  core::Engine engine_;
  Session session_;
  CostModel cost_;
};

TEST_F(PlanFixture, CompileClassifiesConjuncts) {
  Exec("create basket s (a int, b int)");
  auto cq = Compile(
      "select * from [select * from s where a > 10 and b = 1] as w "
      "where w.a < 100");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(cq->source_basket, "s");
  EXPECT_TRUE(cq->window_trivial);
  EXPECT_EQ(cq->min_tuples, 1u);
  // Inner a>10, b=1 and outer a<100 (trivial window) are all shareable.
  EXPECT_EQ(cq->shared.size(), 3u);
  for (const Conjunct& c : cq->shared) EXPECT_TRUE(c.shareable);
}

TEST_F(PlanFixture, NonTrivialWindowBlocksOuterPushdown) {
  Exec("create basket s (a int, b int)");
  auto cq = Compile(
      "select * from [select top 5 from s where a > 10 order by b] as w "
      "where w.a < 100");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_FALSE(cq->window_trivial);
  EXPECT_EQ(cq->min_tuples, 5u);
  // Only the inner conjunct crosses; the outer filter stays post-window.
  EXPECT_EQ(cq->shared.size(), 1u);
}

TEST_F(PlanFixture, NowConjunctIsNotShareable) {
  Exec("create basket s (a int)");
  auto cq = Compile(
      "select * from [select * from s where a > 10 and a < now()] as w");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(cq->shared.size(), 1u);  // only a > 10
}

TEST_F(PlanFixture, UnsupportedShapesFallThrough) {
  Exec("create basket a (x int)");
  Exec("create basket b (x int)");
  // Two-basket merge: not in the plannable subset.
  EXPECT_FALSE(Compile("select * from [select * from a], [select * from b] "
                       "where a.x = b.x")
                   .ok());
  // One-time query: no basket expression.
  Exec("create table t (x int)");
  EXPECT_FALSE(Compile("select * from t").ok());
}

TEST_F(PlanFixture, FilterOrderedBySelectivity) {
  Exec("create basket s (a int, b int)");
  auto cq = Compile(
      "select * from [select * from s where a <> 1 and b = 2 and a > 3]");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  // Evaluation order is eq (0.10) < range (0.33) < ne (0.90).
  std::vector<Conjunct> ordered = cq->shared;
  OrderBySelectivity(&ordered);
  ASSERT_EQ(ordered.size(), 3u);
  EXPECT_EQ(ordered[0].expr->ToString(), "(b = 2)");
  EXPECT_EQ(ordered[1].expr->ToString(), "(a > 3)");
  EXPECT_EQ(ordered[2].expr->ToString(), "(a <> 1)");
  EXPECT_LT(ordered[0].est_sel, ordered[1].est_sel);
  EXPECT_LT(ordered[1].est_sel, ordered[2].est_sel);
}

// ---------------------------------------------------------------------------
// Multi-query optimizer
// ---------------------------------------------------------------------------

TEST_F(PlanFixture, DefaultModeKeepsLegacyWiring) {
  Exec("create basket s (a int)");
  auto f1 = session_.RegisterContinuousSelect(
      "q1", "select * from [select * from s where a > 1]", nullptr);
  ASSERT_TRUE(f1.ok());
  auto f2 = session_.RegisterContinuousSelect(
      "q2", "select * from [select * from s where a > 2]", nullptr);
  ASSERT_TRUE(f2.ok());
  // One transition per query, no shared walk.
  EXPECT_EQ(engine_.scheduler().num_transitions(), 2u);
  EXPECT_EQ(CountTransitions("mqo."), 0u);
  EXPECT_TRUE(session_.UnregisterContinuousQuery("q1").ok());
  EXPECT_EQ(engine_.scheduler().num_transitions(), 1u);
}

TEST_F(PlanFixture, IdenticalPrefixFactorsIntoOneSharedChain) {
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  std::vector<std::string> r1, r2, r3;
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q1", "select * from [select * from s where a > 10]",
                      Collect(&r1))
                  .ok());
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q2", "select * from [select * from s where 10 < a]",
                      Collect(&r2))
                  .ok());
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q3", "select * from [select * from s where a > 10]",
                      Collect(&r3))
                  .ok());
  // One fused transition, which runs the three stateless leaves inline.
  EXPECT_EQ(CountTransitions("mqo."), 1u);
  EXPECT_EQ(engine_.scheduler().num_transitions(), 1u);

  Exec("insert into s values (5, 1), (11, 2), (20, 3)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ(r1.size(), 2u);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, r3);
  // All three share the normalized a > 10, evaluated once: its node saw
  // the three delivered rows, not three times that.
  for (const char* q : {"q1", "q2", "q3"}) {
    EXPECT_EQ(NodeCounts(q, "mqo.s.root"), (std::vector<int64_t>{3, 2})) << q;
  }
}

TEST_F(PlanFixture, SharedPrefixEvaluatesOncePerNode) {
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(session_
                    .RegisterContinuousSelect(
                        "q" + std::to_string(i),
                        "select * from [select * from s where a > 10 and b = " +
                            std::to_string(i) + "]",
                        nullptr)
                    .ok());
  }
  EXPECT_EQ(CountTransitions("mqo."), 1u);
  EXPECT_EQ(engine_.scheduler().num_transitions(), 1u);
  Exec("insert into s values (5, 1), (11, 1), (12, 2), (13, 2), (40, 3), "
       "(1, 2)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  // The root node evaluates a > 10 over all six rows once; each branch
  // node sees the root's four survivors.
  std::vector<int64_t> root = NodeCounts("q1", "mqo.s.root");
  EXPECT_EQ(root, (std::vector<int64_t>{6, 4}));
  for (const char* q : {"q2", "q3"}) {
    EXPECT_EQ(NodeCounts(q, "mqo.s.root"), root) << q;
  }
  auto branches = session_.Execute(
      "select query, rows_in, rows_out from dc_plans where kind = 'node' "
      "and stage <> 'mqo.s.root' and shared_by = 1");
  ASSERT_TRUE(branches.ok());
  int64_t out_total = 0;
  size_t mine = 0;
  for (size_t i = 0; i < branches->num_rows(); ++i) {
    const Row row = branches->GetRow(i);
    const std::string q = row[0].string_value();
    if (q != "q1" && q != "q2" && q != "q3") continue;
    ++mine;
    EXPECT_EQ(row[1].int_value(), 4) << q;
    out_total += row[2].int_value();
  }
  EXPECT_EQ(mine, 3u);
  EXPECT_EQ(out_total, 4);  // (11,1) (12,2) (13,2) (40,3)
}

// A FactoryBuilder that runs each statement on its leaf basket, and fails
// for the query named `*fail_for`. It inlines nothing, so every shared
// query gets a leaf basket and a leaf factory.
QuerySetOptimizer::FactoryBuilder FailingBuilder(core::Engine* engine,
                                                 const std::string* fail_for) {
  return [engine, fail_for](const std::string& name,
                            std::shared_ptr<Statement> stmt,
                            core::Emitter::Sink sink, bool inline_leaf)
             -> Result<BuiltQuery> {
    if (name == *fail_for) return Status::Internal("injected build failure");
    if (inline_leaf) return BuiltQuery{};
    ASSIGN_OR_RETURN(core::BasketPtr leaf, engine->GetBasket("mqo.q." + name));
    Executor exec(engine);
    ASSIGN_OR_RETURN(PreparedPtr prepared, exec.Prepare(*stmt));
    auto f = std::make_shared<core::Factory>(
        name, [exec, stmt, prepared, sink](core::FactoryContext&) -> Status {
          ASSIGN_OR_RETURN(Table t, exec.Run(*prepared));
          if (t.num_rows() > 0) RETURN_NOT_OK(sink(t));
          return Status::OK();
        });
    f->AddInput(leaf, 1);
    return BuiltQuery{f, nullptr, Executor::Describe(*prepared)};
  };
}

TEST_F(PlanFixture, FailedRebuildKeepsTheOldNetRunning) {
  Exec("create basket s (a int)");
  std::string fail_for = "q2";
  QuerySetOptimizer opt(&engine_, FailingBuilder(&engine_, &fail_for));
  opt.set_sharing_enabled(true);
  auto parse = [](const std::string& sql) {
    auto stmt = ParseOne(sql);
    EXPECT_TRUE(stmt.ok());
    return std::shared_ptr<Statement>(std::move(*stmt));
  };
  std::vector<std::string> r1, r2;
  ASSERT_TRUE(opt.AddQuery("q1", parse("select * from [select * from s "
                                       "where a > 1]"),
                           Collect(&r1))
                  .ok());
  const size_t transitions = engine_.scheduler().num_transitions();
  ASSERT_EQ(transitions, 2u);  // fused walk + q1's leaf

  Exec("insert into s values (5), (6)");
  auto failed = opt.AddQuery(
      "q2", parse("select * from [select * from s where a > 2]"),
      Collect(&r2));
  EXPECT_EQ(failed.status().code(), StatusCode::kInternal);
  EXPECT_EQ(engine_.scheduler().num_transitions(), transitions);
  EXPECT_FALSE(opt.HasQuery("q2"));
  EXPECT_FALSE(engine_.HasBasket("mqo.q.q2"));
  Exec("insert into s values (7), (8)");
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ(r1.size(), 4u);
  ASSERT_TRUE(engine_.GetBasket("s").ok());
  EXPECT_EQ((*engine_.GetBasket("s"))->size(), 0u);

  // A removal whose rebuild fails leaves both queries running. Removal
  // builds no leaf, only a new fused transition over the net's source,
  // which it resolves by name first: with `s` gone from the catalog that
  // step fails, and the old net keeps walking the basket it holds.
  fail_for.clear();
  ASSERT_TRUE(opt.AddQuery("q2", parse("select * from [select * from s "
                                       "where a > 2]"),
                           Collect(&r2))
                  .ok());
  auto source = engine_.GetBasket("s");
  ASSERT_TRUE(source.ok());
  ASSERT_TRUE(engine_.DropBasket("s").ok());
  EXPECT_EQ(opt.RemoveQuery("q2").code(), StatusCode::kNotFound);
  EXPECT_TRUE(opt.HasQuery("q2"));
  EXPECT_TRUE(engine_.HasBasket("mqo.q.q2"));
  EXPECT_EQ(engine_.scheduler().num_transitions(), 3u);
  Table nine(Schema({{"a", DataType::kInt64}}));
  ASSERT_TRUE(nine.AppendRow({Value(int64_t{9})}).ok());
  ASSERT_TRUE((*source)->Append(nine, 0).ok());
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ(r1.size(), 5u);
  EXPECT_EQ(r2.size(), 1u);
}

// One 131072-row delivery over a trie whose first level has four sibling
// nodes: the fused walk fans the level out on the scheduler's pool, and
// every query's output is byte-identical to one worker and to the scalar
// kernels.
TEST(FusedWalkTest, LevelFanOutMatchesOneWorkerAndScalar) {
  const std::vector<std::string> queries = {
      "select a, b from [select * from s where a % 7 <> 0]",
      "select a, b from [select * from s where a * 3 + 1 < 150000]",
      "select a, b from [select * from s where b > 50]",
      "select a, b from [select * from s where a < 60000 and b = 3]",
      "select a, b from [select * from s where a < 60000 and b = 4]",
      "select b, count(*), sum(a) from [select * from s where a >= 100000] "
      "group by b",
  };
  constexpr int64_t kRows = 131072;
  Table feed(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  for (int64_t i = 0; i < kRows; ++i) {
    feed.column(0).AppendInt(i * 7919 % kRows);
    feed.column(1).AppendInt(i % 100);
  }
  auto run = [&](size_t workers, uint64_t* morsels) {
    core::Engine engine(SystemClock::Get(), workers);
    Session session(&engine);
    session.set_sharing_enabled(true);
    EXPECT_TRUE(session.Execute("create basket s (a int, b int)").ok());
    std::vector<std::vector<std::string>> out(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_TRUE(session
                      .RegisterContinuousSelect("q" + std::to_string(i),
                                                queries[i],
                                                Collect(&out[i]))
                      .ok());
    }
    core::Scheduler& sched = engine.scheduler();
    EXPECT_TRUE(sched.Start().ok());
    auto s = engine.GetBasket("s");
    EXPECT_TRUE(s.ok());
    EXPECT_TRUE((*s)->Append(feed, 0).ok());
    auto quiet = [&] {
      for (const std::string& name : engine.ListBaskets()) {
        if (!(*engine.GetBasket(name))->empty()) return false;
      }
      return sched.Idle();
    };
    for (int i = 0; i < 60000 && !quiet(); ++i) {
      SystemClock::Get()->SleepFor(500);
    }
    sched.Stop();
    EXPECT_TRUE(sched.last_error().ok());
    for (const auto& t : sched.TransitionStatsSnapshot()) {
      if (t.name == "mqo.s.root") *morsels = t.morsels;
    }
    return out;
  };
  uint64_t one_worker_morsels = 0;
  uint64_t fanned_morsels = 0;
  uint64_t scalar_morsels = 0;
  const auto one = run(1, &one_worker_morsels);
  const auto fanned = run(3, &fanned_morsels);
  simd::SetForceScalar(true);
  const auto scalar = run(3, &scalar_morsels);
  simd::SetForceScalar(false);
  // The counters are process-wide; one worker adds none. With the fan-out
  // each node of the two wide levels (five under the root, b = 3 and b = 4
  // under a < 60000) is one task and its kernels run inline; without it
  // the dense kernels would split their spans into 32k-row morsels. That
  // makes 7. The inlined leaves of the first level (q0, q1, q2 and q5,
  // 112347 + 50000 + 64225 + 31072 rows) are one task each, 4 more; the
  // two of the second level (b = 3 and b = 4, about 600 rows each) span
  // less than a morsel and run on the firing thread. 11 in all.
  EXPECT_EQ(fanned_morsels - one_worker_morsels, 11u);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_FALSE(one[i].empty()) << queries[i];
    EXPECT_EQ(fanned[i], one[i]) << queries[i];
    EXPECT_EQ(scalar[i], one[i]) << queries[i];
  }
}

// What a sink saw of one batch: the deliveries its rows came from (column
// 0 holds the delivery index), its row count and a digest of its values.
struct Batch {
  int64_t first = 0;
  int64_t last = 0;
  size_t rows = 0;
  uint64_t digest = 0;
  bool operator==(const Batch&) const = default;
};

// A sink recording a Batch per call; every output column is an integer.
core::Emitter::Sink Digest(std::vector<Batch>* out) {
  return [out](const Table& t) -> Status {
    Batch b;
    b.rows = t.num_rows();
    const auto d = t.column(0).ints();
    b.first = d[0];
    b.last = d[0];
    uint64_t h = 14695981039346656037ull;
    for (size_t c = 0; c < t.num_columns(); ++c) {
      const auto v = t.column(c).ints();
      for (size_t i = 0; i < t.num_rows(); ++i) {
        h = (h ^ static_cast<uint64_t>(v[i])) * 1099511628211ull;
      }
    }
    for (size_t i = 0; i < t.num_rows(); ++i) {
      b.first = std::min(b.first, d[i]);
      b.last = std::max(b.last, d[i]);
    }
    b.digest = h;
    out->push_back(b);
    return Status::OK();
  };
}

// Bulk deliveries through a net of inlined leaves on three workers: the
// leaves of a wide level run as pool tasks, yet each query's sink sees one
// batch per delivery, in delivery order, byte-identical to one worker and
// to the scalar kernels.
TEST(FusedWalkTest, InlinedLeavesKeepDeliveryOrderOnThePool) {
  const std::vector<std::string> queries = {
      "select * from [select * from s]",
      "select d, a, b from [select * from s where a % 7 <> 0]",
      "select d, a from [select * from s where b > 50]",
      "select d, a from [select * from s where a < 60000 and b = 3]",
      "select d, a from [select * from s where a < 60000 and b = 4]",
      "select d, b, count(*), sum(a) from [select * from s where "
      "a >= 100000] group by d, b",
  };
  constexpr int64_t kRows = 131072;
  constexpr int64_t kDeliveries = 4;
  auto run = [&](size_t workers) {
    core::Engine engine(SystemClock::Get(), workers);
    Session session(&engine);
    session.set_sharing_enabled(true);
    EXPECT_TRUE(session.Execute("create basket s (d int, a int, b int)").ok());
    std::vector<std::vector<Batch>> out(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      auto added = session.RegisterContinuousSelect(
          "q" + std::to_string(i), queries[i], Digest(&out[i]));
      EXPECT_TRUE(added.ok()) << queries[i];
    }
    core::Scheduler& sched = engine.scheduler();
    EXPECT_EQ(sched.num_transitions(), 1u);
    EXPECT_TRUE(sched.Start().ok());
    auto s = engine.GetBasket("s");
    EXPECT_TRUE(s.ok());
    for (int64_t d = 0; d < kDeliveries; ++d) {
      Table feed(Schema({{"d", DataType::kInt64},
                         {"a", DataType::kInt64},
                         {"b", DataType::kInt64}}));
      for (int64_t i = 0; i < kRows; ++i) {
        feed.column(0).AppendInt(d);
        feed.column(1).AppendInt((i + d * 5) * 7919 % kRows);
        feed.column(2).AppendInt((i + d) % 100);
      }
      EXPECT_TRUE((*s)->Append(feed, 0).ok());
      for (int i = 0; i < 60000 && !((*s)->empty() && sched.Idle()); ++i) {
        SystemClock::Get()->SleepFor(500);
      }
    }
    sched.Stop();
    EXPECT_TRUE(sched.last_error().ok());
    return out;
  };
  const auto fanned = run(3);
  const auto one = run(1);
  simd::SetForceScalar(true);
  const auto scalar = run(3);
  simd::SetForceScalar(false);
  for (size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE(queries[q]);
    ASSERT_EQ(fanned[q].size(), static_cast<size_t>(kDeliveries));
    for (size_t d = 0; d < fanned[q].size(); ++d) {
      EXPECT_EQ(fanned[q][d].first, static_cast<int64_t>(d));
      EXPECT_EQ(fanned[q][d].last, static_cast<int64_t>(d));
    }
    EXPECT_EQ(fanned[q], one[q]);
    EXPECT_EQ(fanned[q], scalar[q]);
  }
}

TEST_F(PlanFixture, SharedResultsMatchLegacySingleQuery) {
  const std::vector<std::string> queries = {
      "select * from [select * from s where a > 10 and b = 1]",
      "select * from [select * from s where a > 10 and b = 2]",
      "select * from [select * from s where a > 10] as w where w.b <> 3",
  };
  const std::string feed =
      "insert into s values (11, 1), (5, 1), (12, 2), (13, 3), (40, 1), "
      "(41, 2), (9, 2), (50, 3)";

  // Ground truth: each query alone on a fresh engine, legacy wiring.
  std::vector<std::vector<std::string>> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    SimulatedClock clock(0);
    core::Engine engine(&clock);
    Session session(&engine);
    auto r = session.Execute("create basket s (a int, b int)");
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(session
                    .RegisterContinuousSelect("q", queries[i],
                                              Collect(&expected[i]))
                    .ok());
    ASSERT_TRUE(session.Execute(feed).ok());
    ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
  }

  // Shared engine: all three queries on one basket.
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  std::vector<std::vector<std::string>> got(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(session_
                    .RegisterContinuousSelect("q" + std::to_string(i),
                                              queries[i], Collect(&got[i]))
                    .ok());
  }
  Exec(feed);
  ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "query " << i;
  }
}

TEST_F(PlanFixture, DropLeavesSiblingResultsByteIdentical) {
  const std::vector<std::string> queries = {
      "select * from [select * from s where a > 10 and b = 1]",
      "select * from [select * from s where a > 10 and b = 2]",
      "select * from [select * from s where a > 10 and b = 3]",
  };
  const std::string batch1 =
      "insert into s values (11, 1), (12, 2), (13, 3), (5, 1), (40, 1)";
  const std::string batch2 =
      "insert into s values (21, 1), (22, 2), (23, 3), (6, 2), (50, 3)";

  auto run = [&](bool drop_q1_midway,
                 std::vector<std::vector<std::string>>* out) {
    SimulatedClock clock(0);
    core::Engine engine(&clock);
    Session session(&engine);
    ASSERT_TRUE(session.Execute("create basket s (a int, b int)").ok());
    session.set_sharing_enabled(true);
    out->assign(queries.size(), {});
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(session
                      .RegisterContinuousSelect("q" + std::to_string(i),
                                                queries[i],
                                                Collect(&(*out)[i]))
                      .ok());
    }
    ASSERT_TRUE(session.Execute(batch1).ok());
    ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
    ASSERT_TRUE(session.Execute(batch2).ok());
    if (drop_q1_midway) {
      // batch2 is still resident in the source basket: the rebuild's
      // drain/teardown must not lose or reorder it for q0 / q2.
      ASSERT_TRUE(session.UnregisterContinuousQuery("q1").ok());
      EXPECT_FALSE(engine.HasBasket("mqo.q.q1"));
    }
    ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
  };

  std::vector<std::vector<std::string>> keep_all, with_drop;
  run(false, &keep_all);
  run(true, &with_drop);
  EXPECT_EQ(with_drop[0], keep_all[0]);
  EXPECT_EQ(with_drop[2], keep_all[2]);
  EXPECT_FALSE(keep_all[0].empty());
}

TEST_F(PlanFixture, DuplicateNameAndMissingNameAreCleanErrors) {
  Exec("create basket s (a int)");
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q", "select * from [select * from s]", nullptr)
                  .ok());
  auto dup = session_.RegisterContinuousSelect(
      "q", "select * from [select * from s]", nullptr);
  EXPECT_FALSE(dup.ok());
  EXPECT_FALSE(session_.UnregisterContinuousQuery("nope").ok());
  EXPECT_TRUE(session_.UnregisterContinuousQuery("q").ok());
}

TEST_F(PlanFixture, ReoptimizeRebuildsOnDriftThenClears) {
  Exec("create basket s (a int)");
  session_.set_sharing_enabled(true);
  std::vector<std::string> r1, r2;
  // b = 1 heuristically estimates 0.10, but the stream passes ~100%.
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q1", "select * from [select * from s where a = 1]",
                      Collect(&r1))
                  .ok());
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q2", "select * from [select * from s where a = 1]",
                      Collect(&r2))
                  .ok());
  for (int i = 0; i < 30; ++i) {
    Exec("insert into s values (1), (1), (1), (1), (1), (1), (1), (1), "
         "(1), (1)");
    ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  }
  auto first = session_.Reoptimize();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, 1u);  // observed ~1.0 vs built 0.10: rebuild
  auto second = session_.Reoptimize();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 0u);  // estimates adopted: trigger self-clears
  EXPECT_EQ(r1.size(), 300u);
  EXPECT_EQ(r1, r2);
}

TEST_F(PlanFixture, ExplainRendersPlanAndSharing) {
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(session_
                    .RegisterContinuousSelect(
                        "q" + std::to_string(i),
                        "select * from [select * from s where a > 10 and b = " +
                            std::to_string(i) + "]",
                        nullptr)
                    .ok());
  }
  auto r = session_.Execute(
      "explain select * from [select * from s where a > 10 and b = 1]");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_columns(), 1u);
  std::string text;
  for (size_t i = 0; i < r->num_rows(); ++i) {
    text += r->GetRow(i)[0].ToString();
    text += "\n";
  }
  // One line per shareable conjunct with its standing count; the chain is
  // the leaf's, with both conjuncts evaluated upstream by the trie, so the
  // fused transition runs what follows its pass-through take inline.
  EXPECT_NE(text.find("shareable (a > 10) [fp "), std::string::npos) << text;
  EXPECT_NE(text.find("] sel 0.33 standing=3'"), std::string::npos) << text;
  EXPECT_NE(text.find("] sel 0.10 standing=1'"), std::string::npos) << text;
  EXPECT_NE(text.find("sharing: on"), std::string::npos) << text;
  EXPECT_NE(text.find("chain (inlined): project'"), std::string::npos)
      << text;

  // EXPLAIN of a one-time query renders the chain it prepares.
  Exec("create table t (x int)");
  auto once = session_.Execute("explain select x from t where x > 1");
  ASSERT_TRUE(once.ok());
  std::string once_text;
  for (size_t i = 0; i < once->num_rows(); ++i) {
    once_text += once->GetRow(i)[0].ToString();
    once_text += "\n";
  }
  EXPECT_NE(once_text.find("one-time plan"), std::string::npos) << once_text;
  EXPECT_NE(once_text.find("chain: scan t → filter (x > 1) → project"),
            std::string::npos)
      << once_text;
}

// In shared mode a query outside the plannable subset (here a join) reads
// a replica leaf of its source basket, so the fused walk of that basket
// cannot take rows away from it: every query sees the full stream.
TEST_F(PlanFixture, NonPlannableQueryGetsReplicaLeafInSharedMode) {
  auto run = [](bool sharing, std::vector<std::string>* r1,
                std::vector<std::string>* r2, size_t* left_in_b) {
    SimulatedClock clock(0);
    core::Engine engine(&clock);
    Session session(&engine);
    session.set_sharing_enabled(sharing);
    ASSERT_TRUE(session.Execute("create basket b (a int, v int)").ok());
    ASSERT_TRUE(session.Execute("create table t (a int, name string)").ok());
    ASSERT_TRUE(
        session.Execute("insert into t values (1, 'one'), (2, 'two')").ok());
    ASSERT_TRUE(session
                    .RegisterContinuousSelect(
                        "q1", "select a, v from [select * from b where v > 10] as x",
                        Collect(r1))
                    .ok());
    auto q2 = session.RegisterContinuousSelect(
        "q2",
        "select x.v, t.name from [select * from b] as x, t where x.a = t.a",
        Collect(r2));
    ASSERT_TRUE(q2.ok()) << q2.status().ToString();
    if (sharing) {
      EXPECT_TRUE(engine.HasBasket("mqo.q.q2.b"));
      EXPECT_EQ((*q2)->input(0)->name(), "mqo.q.q2.b");
    }
    ASSERT_TRUE(session.Execute("insert into b values (1, 5), (2, 20)").ok());
    ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
    *left_in_b = (*engine.GetBasket("b"))->size();
    if (sharing) {
      // Removing the query retracts its replica leaf from b's net.
      ASSERT_TRUE(session.UnregisterContinuousQuery("q2").ok());
      EXPECT_FALSE(engine.HasBasket("mqo.q.q2.b"));
      ASSERT_TRUE(session.Execute("insert into b values (3, 30)").ok());
      ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
      EXPECT_EQ(r1->size(), 2u);
      EXPECT_EQ(r2->size(), 2u);
    }
  };
  std::vector<std::string> r1, r2;
  size_t left = 0;
  run(/*sharing=*/true, &r1, &r2, &left);
  EXPECT_EQ(r1, (std::vector<std::string>{"2|20", "3|30"}));
  EXPECT_EQ(r2, (std::vector<std::string>{"5|'one'", "20|'two'"}));
  EXPECT_EQ(left, 0u);

  // Sharing off keeps the direct wiring: both factories compete for b.
  std::vector<std::string> d1, d2;
  run(/*sharing=*/false, &d1, &d2, &left);
  EXPECT_EQ(d1, (std::vector<std::string>{"2|20"}));
  EXPECT_EQ(d2, (std::vector<std::string>{"5|'one'"}));
  EXPECT_EQ(left, 0u);
}

// dc_plans renders the operator chain each query's factory runs.
TEST_F(PlanFixture, PlansShowThePreparedPipeline) {
  Exec("create basket s (k int, payload int)");
  Exec("create table t (k int, name string)");
  session_.set_sharing_enabled(true);
  std::vector<std::string> rows;
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "g0",
                      "select k, count(*), sum(payload) from [select * from s "
                      "where payload >= 8000] group by k",
                      Collect(&rows))
                  .ok());
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "j0",
                      "select x.payload, t.name from [select * from s] as x, "
                      "t where x.k = t.k",
                      Collect(&rows))
                  .ok());
  auto detail = [&](const std::string& query, const std::string& kind) {
    auto r = session_.Execute("select detail from dc_plans where query = '" +
                              query + "' and kind = '" + kind + "'");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r->num_rows() == 1 ? r->GetRow(0)[0].string_value()
                                        : std::string();
  };
  // g0's leaf is inlined: its row lists the operators after the take and
  // names the node it runs under.
  EXPECT_EQ(detail("g0", "leaf"),
            "aggregate group by k [count(*), sum(payload)] → project → sink");
  auto stages = session_.Execute(
      "select stage, kind from dc_plans where query = 'g0'");
  ASSERT_TRUE(stages.ok()) << stages.status().ToString();
  ASSERT_EQ(stages->num_rows(), 3u);  // root, payload >= 8000, leaf
  EXPECT_EQ(stages->GetRow(2)[1].string_value(), "leaf");
  EXPECT_EQ(stages->GetRow(2)[0], stages->GetRow(1)[0]);
  EXPECT_EQ(detail("j0", "direct"),
            "(take mqo.q.j0.s), (scan t) → hash join on k = k → project → "
            "sink");
}

TEST_F(PlanFixture, PlansVirtualTableListsStages) {
  Exec("create basket s (a int)");
  session_.set_sharing_enabled(true);
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q1", "select * from [select * from s where a > 1]",
                      nullptr)
                  .ok());
  auto r = session_.Execute("select * from dc_plans");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GE(r->num_rows(), 2u);  // stage row + leaf row
}

// ---------------------------------------------------------------------------
// Incremental registration
// ---------------------------------------------------------------------------

// The dc_plans rows (minus the live row counts, which depend on history)
// of the queries `names`, each `prefix` + a suffix, with `prefix` replaced
// by "q_" in every column so two sessions' rows compare. (The registry is
// process-wide: it lists every live session's rows.)
std::vector<std::string> PlanRows(Session& session, const std::string& prefix,
                                  const std::set<std::string>& names) {
  auto r = session.Execute(
      "select query, stage, kind, detail, fingerprint, shared_by, est_rows "
      "from dc_plans");
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::vector<std::string> out;
  if (!r.ok()) return out;
  for (size_t i = 0; i < r->num_rows(); ++i) {
    const Row row = r->GetRow(i);
    if (names.count(row[0].string_value()) == 0) continue;
    std::string line;
    for (const Value& v : row) line += v.ToString() + "|";
    for (size_t at = line.find(prefix); at != std::string::npos;
         at = line.find(prefix, at)) {
      line.replace(at, prefix.size(), "q_");
    }
    out.push_back(std::move(line));
  }
  return out;
}

// Seeded add/remove sequences over queries that share, nest and split
// conjunct prefixes, with a replicated join query among them and a
// Reoptimize now and then: after every step the incrementally maintained
// net equals a fresh session that registers only the survivors, in its
// trie and dc_plans rows (node names, levels, conjunct runs, attached
// queries, shared_by, estimates) and in every query's results on the next
// delivery. Inlined leaves mix with stateful ones: a `top 1` window, a
// residual predicate the trie cannot share (it names a session variable)
// and an INSERT leaf, whose rows are drained from its target basket.
TEST(IncrementalRegistrationTest, AddRemoveSequencesMatchAFreshSession) {
  const std::vector<std::string> atoms = {
      "a > 10", "a < 60", "b = 1", "b = 2", "b <> 3", "a % 3 = 0", "a >= 20"};
  // Rows the stateful leaves (top 1, residual, insert) produced in all.
  size_t stateful_rows[3] = {0, 0, 0};
  for (const bool factoring : {true, false}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      Random rng(seed);
      std::vector<std::string> pool;
      for (int i = 0; i < 10; ++i) {
        std::string where;
        const uint64_t n = 1 + rng.Uniform(3);
        for (uint64_t k = 0; k < n; ++k) {
          const std::string& atom = atoms[rng.Uniform(atoms.size())];
          if (where.find(atom) != std::string::npos) continue;
          where += (where.empty() ? "" : " and ") + atom;
        }
        pool.push_back(rng.Uniform(4) == 0
                           ? "select b, count(*) from [select * from s where " +
                                 where + "] group by b"
                           : "select * from [select * from s where " + where +
                                 "]");
      }
      pool.push_back("select * from [select * from s]");
      pool.push_back(
          "select * from [select top 1 from s where a > 10 order by a desc]");
      pool.push_back(
          "select * from [select * from s where b <> 3 and a < lim]");
      const size_t insert_at = pool.size();
      pool.push_back(
          "insert into o select a, b from [select * from s where a >= 20]");
      pool.push_back(
          "select x.a, t.name from [select * from s] as x, t where x.b = t.b");
      auto name = [](const std::string& prefix, size_t i) {
        return prefix + (i < 10 ? "0" : "") + std::to_string(i);
      };
      auto open = [&](Session* session) {
        session->set_sharing_enabled(true);
        session->optimizer().set_factoring_enabled(factoring);
        EXPECT_TRUE(session->Execute("create basket s (a int, b int)").ok());
        EXPECT_TRUE(session->Execute("create basket o (a int, b int)").ok());
        EXPECT_TRUE(session->Execute("declare lim int; set lim = 50").ok());
        EXPECT_TRUE(session->Execute("create table t (b int, name string)").ok());
        EXPECT_TRUE(
            session->Execute("insert into t values (1, 'one'), (2, 'two')").ok());
      };
      auto add = [&](Session* session, const std::string& query, size_t i,
                     std::vector<std::string>* out) {
        return i == insert_at
                   ? session->RegisterContinuousQuery(query, pool[i])
                   : session->RegisterContinuousSelect(query, pool[i],
                                                       Collect(out));
      };
      auto drain = [](Session* session) {
        std::vector<std::string> out;
        auto r = session->Execute("select * from [select * from o]");
        EXPECT_TRUE(r.ok()) << r.status().ToString();
        if (r.ok()) Collect(&out)(*r).IgnoreError();
        return out;
      };
      SimulatedClock clock(0);
      core::Engine engine(&clock);
      Session session(&engine);
      open(&session);
      std::vector<std::vector<std::string>> got(pool.size());
      std::vector<bool> standing(pool.size(), false);
      for (int step = 0; step < 30; ++step) {
        // Fewer rows than CostModel::kMinSample reach any conjunct, so
        // this changes no estimate, but the next change re-plans the
        // whole net (the path Reoptimize's observations take).
        if (step % 7 == 6) {
          auto rebuilt = session.Reoptimize();
          ASSERT_TRUE(rebuilt.ok());
          EXPECT_EQ(*rebuilt, 0u);
        }
        const size_t pick = rng.Uniform(pool.size());
        if (standing[pick]) {
          ASSERT_TRUE(
              session.UnregisterContinuousQuery(name("qa_", pick)).ok());
        } else {
          ASSERT_TRUE(add(&session, name("qa_", pick), pick, &got[pick]).ok())
              << pool[pick];
        }
        standing[pick] = !standing[pick];

        SimulatedClock ref_clock(0);
        core::Engine ref_engine(&ref_clock);
        Session ref(&ref_engine);
        open(&ref);
        std::vector<std::vector<std::string>> want(pool.size());
        std::set<std::string> names, ref_names;
        for (size_t i = 0; i < pool.size(); ++i) {
          if (!standing[i]) continue;
          names.insert(name("qa_", i));
          ref_names.insert(name("qb_", i));
          ASSERT_TRUE(add(&ref, name("qb_", i), i, &want[i]).ok());
        }
        SCOPED_TRACE("factoring " + std::to_string(factoring) + " seed " +
                     std::to_string(seed) + " step " + std::to_string(step));
        EXPECT_EQ(engine.scheduler().num_transitions(),
                  ref_engine.scheduler().num_transitions());
        const std::vector<std::string> rows = PlanRows(session, "qa_", names);
        EXPECT_GE(rows.size(), 2 * names.size() - standing.back());
        EXPECT_EQ(rows, PlanRows(ref, "qb_", ref_names));

        // With no query standing, rows would wait in `s` for the next
        // registration, which a fresh session cannot replay.
        if (names.empty()) continue;
        std::string feed = "insert into s values ";
        for (int r = 0; r < 6; ++r) {
          feed += (r > 0 ? ", (" : "(") + std::to_string(rng.Uniform(80)) +
                  ", " + std::to_string(rng.Uniform(4)) + ")";
        }
        std::vector<size_t> before(pool.size());
        for (size_t i = 0; i < pool.size(); ++i) before[i] = got[i].size();
        ASSERT_TRUE(session.Execute(feed).ok());
        ASSERT_TRUE(ref.Execute(feed).ok());
        ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
        ASSERT_TRUE(ref_engine.scheduler().RunUntilQuiescent().ok());
        const std::vector<std::string> inserted = drain(&session);
        EXPECT_EQ(inserted, drain(&ref));
        stateful_rows[2] += inserted.size();
        for (size_t i = insert_at - 2; i < insert_at; ++i) {
          stateful_rows[i + 2 - insert_at] += got[i].size() - before[i];
        }
        for (size_t i = 0; i < pool.size(); ++i) {
          if (!standing[i]) continue;
          EXPECT_EQ(std::vector<std::string>(got[i].begin() + before[i],
                                             got[i].end()),
                    want[i])
              << pool[i];
        }
      }
    }
  }
  for (const size_t rows : stateful_rows) EXPECT_GT(rows, 0u);
}

// Another query's registration or removal leaves a standing stateful
// query's leaf factory and its scheduler registration as they were: only
// the fused root is swapped, so with `top 2` leaves, which keep state and
// so keep their baskets and factories, the transition count moves by
// exactly one.
TEST_F(PlanFixture, StandingLeafKeepsItsFactoryAndRegistration) {
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  std::vector<std::string> r1, r2, r3;
  auto q1 = session_.RegisterContinuousSelect(
      "q1", "select * from [select top 2 from s where a > 10]", Collect(&r1));
  ASSERT_TRUE(q1.ok());
  const core::FactoryPtr leaf = *q1;
  EXPECT_EQ(leaf->name(), "q1");
  core::Scheduler& sched = engine_.scheduler();
  size_t transitions = sched.num_transitions();
  uint64_t firings = leaf->stats().firings;
  auto check = [&](const char* after, int64_t delta) {
    SCOPED_TRACE(after);
    EXPECT_EQ(static_cast<int64_t>(sched.num_transitions()),
              static_cast<int64_t>(transitions) + delta);
    transitions = sched.num_transitions();
    // The very factory registered with q1 still fires.
    Exec("insert into s values (11, 1), (12, 2)");
    ASSERT_TRUE(sched.RunUntilQuiescent().ok());
    EXPECT_GT(leaf->stats().firings, firings);
    firings = leaf->stats().firings;
  };
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q2", "select * from [select top 2 from s where a > 10]",
                      Collect(&r2))
                  .ok());
  check("add q2", 1);
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q3",
                      "select * from [select top 2 from s where a > 10 and "
                      "b = 2]",
                      Collect(&r3))
                  .ok());
  check("add q3", 1);
  ASSERT_TRUE(session_.UnregisterContinuousQuery("q2").ok());
  check("remove q2", -1);
  ASSERT_TRUE(session_.UnregisterContinuousQuery("q3").ok());
  check("remove q3", -1);
  EXPECT_EQ(r1.size(), 8u);
  // Still registered: unregistering it succeeds exactly once.
  EXPECT_TRUE(sched.Unregister(leaf).ok());
  EXPECT_EQ(sched.Unregister(leaf).code(), StatusCode::kNotFound);
}

// The inlined twin: a stateless leaf has no transition of its own. Its
// registration returns the fused root of the moment, which the next change
// to the net replaces; the query keeps producing its rows across other
// queries' adds and removes, inlined or stateful.
TEST_F(PlanFixture, InlinedLeafKeepsRunningAcrossAddsAndRemoves) {
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  std::vector<std::string> r1, r2, r3;
  core::Scheduler& sched = engine_.scheduler();
  auto q1 = session_.RegisterContinuousSelect(
      "q1", "select * from [select * from s where a > 10 and b = 1]",
      Collect(&r1));
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ((*q1)->name(), "mqo.s.root");
  EXPECT_EQ(sched.num_transitions(), 1u);
  EXPECT_FALSE(engine_.HasBasket("mqo.q.q1"));
  size_t want = 0;
  auto check = [&](const char* after, size_t transitions) {
    SCOPED_TRACE(after);
    EXPECT_EQ(sched.num_transitions(), transitions);
    Exec("insert into s values (11, 1), (12, 2), (5, 1), (13, 1)");
    ASSERT_TRUE(sched.RunUntilQuiescent().ok());
    want += 2;
    EXPECT_EQ(r1.size(), want);
  };
  check("alone", 1);
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q2", "select * from [select * from s where a > 10]",
                      Collect(&r2))
                  .ok());
  // q1's registration returned a root that is gone now.
  EXPECT_EQ(sched.Unregister(*q1).code(), StatusCode::kNotFound);
  check("add inlined q2", 1);
  ASSERT_TRUE(session_
                  .RegisterContinuousSelect(
                      "q3", "select * from [select top 2 from s where b = 2]",
                      Collect(&r3))
                  .ok());
  EXPECT_TRUE(engine_.HasBasket("mqo.q.q3"));
  check("add stateful q3", 2);
  ASSERT_TRUE(session_.UnregisterContinuousQuery("q2").ok());
  check("remove inlined q2", 2);
  ASSERT_TRUE(session_.UnregisterContinuousQuery("q3").ok());
  check("remove stateful q3", 1);
  for (size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i], i % 2 == 0 ? "11|1" : "13|1") << i;
  }
  EXPECT_EQ(r2.size(), 6u);  // three deliveries of three rows
  EXPECT_EQ(r3.size(), 2u);  // one `top 2` window of b = 2 rows
}

// Queries come and go while a started scheduler fires deliveries on its
// workers: every query that stands throughout gets exactly the rows a
// plain evaluation of its predicate gives, in stream order.
TEST(IncrementalRegistrationTest, RegisterWhileThreadedSchedulerFires) {
  struct Standing {
    std::string sql;
    bool (*keep)(int64_t a, int64_t b);
  };
  const std::vector<Standing> standing = {
      {"select * from [select * from s where a > 10]",
       [](int64_t a, int64_t) { return a > 10; }},
      {"select * from [select * from s where a > 10 and b = 1]",
       [](int64_t a, int64_t b) { return a > 10 && b == 1; }},
      {"select * from [select * from s where b <> 2]",
       [](int64_t, int64_t b) { return b != 2; }},
  };
  const std::vector<std::string> churn = {
      "select * from [select * from s where a > 10 and b = 2]",
      "select * from [select * from s where a < 30]",
      "select b, count(*) from [select * from s where a > 10] group by b",
      "select * from [select * from s where b <> 2 and a % 2 = 0]",
  };
  core::Engine engine(SystemClock::Get(), 3);
  Session session(&engine);
  session.set_sharing_enabled(true);
  ASSERT_TRUE(session.Execute("create basket s (a int, b int)").ok());
  std::vector<std::vector<std::string>> got(standing.size());
  for (size_t i = 0; i < standing.size(); ++i) {
    ASSERT_TRUE(session
                    .RegisterContinuousSelect("keep" + std::to_string(i),
                                              standing[i].sql, Collect(&got[i]))
                    .ok());
  }
  std::vector<std::vector<std::string>> churned(churn.size());
  std::vector<bool> up(churn.size(), false);
  auto source = engine.GetBasket("s");
  ASSERT_TRUE(source.ok());
  core::Scheduler& sched = engine.scheduler();
  ASSERT_TRUE(sched.Start().ok());
  std::vector<std::vector<std::string>> want(standing.size());
  Random rng(17);
  int64_t id = 0;
  for (int round = 0; round < 60; ++round) {
    Table batch(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
    for (int r = 0; r < 16; ++r, ++id) {
      const int64_t a = id % 50;
      const int64_t b = static_cast<int64_t>(rng.Uniform(4));
      batch.column(0).AppendInt(a);
      batch.column(1).AppendInt(b);
      for (size_t i = 0; i < standing.size(); ++i) {
        if (standing[i].keep(a, b)) {
          want[i].push_back(std::to_string(a) + "|" + std::to_string(b));
        }
      }
    }
    ASSERT_TRUE((*source)->Append(batch, 0).ok());
    const size_t c = static_cast<size_t>(round) % churn.size();
    const std::string name = "churn" + std::to_string(c);
    if (up[c]) {
      ASSERT_TRUE(session.UnregisterContinuousQuery(name).ok());
    } else {
      ASSERT_TRUE(
          session.RegisterContinuousSelect(name, churn[c], Collect(&churned[c]))
              .ok());
    }
    up[c] = !up[c];
  }
  auto quiet = [&] {
    for (const std::string& basket : engine.ListBaskets()) {
      if (!(*engine.GetBasket(basket))->empty()) return false;
    }
    return sched.Idle();
  };
  for (int i = 0; i < 60000 && !quiet(); ++i) {
    SystemClock::Get()->SleepFor(500);
  }
  sched.Stop();
  EXPECT_TRUE(sched.last_error().ok());
  for (size_t i = 0; i < standing.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << standing[i].sql;
  }
}

// ---------------------------------------------------------------------------
// Teardown
// ---------------------------------------------------------------------------

// A session's queries end with it. Destroying it while its engine lives on
// and is fed, with a threaded scheduler firing, unregisters every
// transition it registered (fused roots, a stateful leaf, direct and
// replicated factories), drops its mqo.* baskets and retracts its dc_plans
// rows: no sink of it runs again, and another session's query on the same
// engine keeps running.
TEST(SessionTeardownTest, DestroyedSessionTakesItsQueriesDown) {
  core::Engine engine(SystemClock::Get(), 2);
  Session keeper(&engine);
  ASSERT_TRUE(keeper.Execute("create basket s (a int, b int)").ok());
  ASSERT_TRUE(keeper.Execute("create basket e (a int, b int)").ok());
  ASSERT_TRUE(keeper.Execute("create basket k (a int, b int)").ok());
  ASSERT_TRUE(keeper.Execute("create basket o (a int, b int)").ok());
  ASSERT_TRUE(keeper.Execute("create table t (b int, name string)").ok());
  ASSERT_TRUE(keeper.Execute("insert into t values (1, 'one')").ok());
  std::vector<std::string> kept;
  ASSERT_TRUE(keeper
                  .RegisterContinuousSelect(
                      "td_keep", "select * from [select * from k]",
                      Collect(&kept))
                  .ok());
  core::Scheduler& sched = engine.scheduler();
  const size_t transitions = sched.num_transitions();
  const size_t baskets = engine.ListBaskets().size();
  auto calls = std::make_shared<std::atomic<uint64_t>>(0);
  auto sink = [calls](const Table&) -> Status {
    calls->fetch_add(1, std::memory_order_relaxed);
    return Status::OK();
  };
  Table batch(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
  for (int64_t i = 0; i < 64; ++i) {
    batch.column(0).AppendInt(i);
    batch.column(1).AppendInt(i % 4);
  }
  auto feed = [&](const char* name) {
    auto b = engine.GetBasket(name);
    EXPECT_TRUE(b.ok() && (*b)->Append(batch, 0).ok()) << name;
  };
  ASSERT_TRUE(sched.Start().ok());
  std::atomic<bool> stop{false};
  std::thread feeder;
  {
    Session session(&engine);
    // Sharing off: a direct factory on e.
    ASSERT_TRUE(session
                    .RegisterContinuousSelect(
                        "td_direct", "select * from [select * from e]", sink)
                    .ok());
    session.set_sharing_enabled(true);
    const char* shared[] = {
        "select * from [select * from s where a > 10]",
        "select b, count(*) from [select * from s where a > 20] group by b",
        "select * from [select top 2 from s where b = 1]",
        "select x.a, t.name from [select * from s] as x, t where x.b = t.b",
    };
    for (size_t i = 0; i < std::size(shared); ++i) {
      ASSERT_TRUE(session
                      .RegisterContinuousSelect("td_q" + std::to_string(i),
                                                shared[i], sink)
                      .ok());
    }
    ASSERT_TRUE(session
                    .RegisterContinuousQuery(
                        "td_ins",
                        "insert into o select a, b from [select * from s "
                        "where a < 5]")
                    .ok());
    EXPECT_GT(sched.num_transitions(), transitions);
    EXPECT_GT(engine.ListBaskets().size(), baskets);
    feeder = std::thread([&] {
      while (!stop.load()) {
        feed("s");
        feed("e");
        SystemClock::Get()->SleepFor(100);
      }
    });
    for (int i = 0; i < 20000 && calls->load() == 0; ++i) {
      SystemClock::Get()->SleepFor(100);
    }
    EXPECT_GT(calls->load(), 0u);
  }  // The session ends here, fed all the while.
  const uint64_t at_end = calls->load();
  stop.store(true);
  feeder.join();
  EXPECT_EQ(sched.num_transitions(), transitions);
  EXPECT_EQ(engine.ListBaskets().size(), baskets);
  auto plans = keeper.Execute("select query from dc_plans");
  ASSERT_TRUE(plans.ok()) << plans.status().ToString();
  for (size_t i = 0; i < plans->num_rows(); ++i) {
    const std::string query = plans->GetRow(i)[0].string_value();
    if (query.rfind("td_", 0) == 0) {
      EXPECT_EQ(query, "td_keep");
    }
  }
  feed("s");
  feed("e");
  feed("k");
  auto k = engine.GetBasket("k");
  ASSERT_TRUE(k.ok());
  for (int i = 0; i < 20000 && !((*k)->empty() && sched.Idle()); ++i) {
    SystemClock::Get()->SleepFor(100);
  }
  sched.Stop();
  EXPECT_TRUE(sched.last_error().ok());
  EXPECT_EQ(calls->load(), at_end);
  EXPECT_EQ(kept.size(), 64u);
}

// ---------------------------------------------------------------------------
// Fixed cost per firing: selections through the trie, operator-owned state
// ---------------------------------------------------------------------------

// Every value of `t`, column by column, after its schema: two tables
// render equal exactly when their schemas, types and values are equal.
std::string Render(const Table& t) {
  std::string out = t.schema().ToString();
  for (size_t c = 0; c < t.num_columns(); ++c) {
    out += "\n";
    for (size_t i = 0; i < t.num_rows(); ++i) {
      const Value v = t.column(c).GetValue(i);
      if (v.is_double()) {
        // Every bit of a double: %.17g round-trips it exactly.
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v.double_value());
        out += buf;
      } else {
        out += v.ToString();
      }
      out += ",";
    }
  }
  return out;
}

// A sink keeping the rendering of every table it is handed.
core::Emitter::Sink Keep(std::vector<std::string>* out) {
  return [out](const Table& t) -> Status {
    out->push_back(Render(t));
    return Status::OK();
  };
}

// Two inlined queries under one fused root project now() on a wall-clock
// engine: within a firing both see the firing's time.
TEST(FixedCostTest, NowIsOneValuePerFiring) {
  core::Engine engine(SystemClock::Get());
  Session session(&engine);
  session.set_sharing_enabled(true);
  ASSERT_TRUE(session.Execute("create basket s (a int)").ok());
  std::vector<std::string> r1, r2;
  ASSERT_TRUE(session
                  .RegisterContinuousSelect(
                      "now1", "select a, now() from [select * from s where a >= 0]",
                      Collect(&r1))
                  .ok());
  ASSERT_TRUE(session
                  .RegisterContinuousSelect(
                      "now2",
                      "select a, now() from [select * from s where a < 1000000]",
                      Collect(&r2))
                  .ok());
  ASSERT_EQ(engine.scheduler().num_transitions(), 1u);
  auto s = engine.GetBasket("s");
  ASSERT_TRUE(s.ok());
  for (int64_t d = 0; d < 200; ++d) {
    Table one(Schema({{"a", DataType::kInt64}}));
    ASSERT_TRUE(one.AppendRow({Value(d)}).ok());
    ASSERT_TRUE((*s)->Append(one, 0).ok());
    ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
  }
  ASSERT_EQ(r1.size(), 200u);
  EXPECT_EQ(r1, r2);
}

// One standing query of each aggregation shape (a single integer key, a
// two-column encoded key, no key) keeps its operator state across
// deliveries of 3000 distinct keys, 2 keys, NULL keys, a 131072-row
// delivery and an 8-row one. Each firing's result is byte-identical to a
// one-time Execute of the same SELECT over the same rows.
TEST(FixedCostTest, StandingGroupByMatchesOneTimeExecute) {
  core::Engine engine(SystemClock::Get());
  Session session(&engine);
  session.set_sharing_enabled(true);
  ASSERT_TRUE(session.Execute("create basket s (k int, j int, v int)").ok());
  ASSERT_TRUE(session.Execute("create basket r (k int, j int, v int)").ok());
  const std::vector<std::string> queries = {
      "select k, count(*), sum(v), min(v) from [select * from <b> where v >= "
      "0] group by k",
      "select k, j, count(*), avg(v) from [select * from <b> where v >= 0] "
      "group by k, j",
      "select count(*), sum(v), max(v) from [select * from <b> where v >= 0]",
      "select j, k from [select * from <b> where v >= 0]",
  };
  auto over = [](std::string sql, const std::string& basket) {
    sql.replace(sql.find("<b>"), 3, basket);
    return sql;
  };
  std::vector<std::vector<std::string>> got(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(session
                    .RegisterContinuousSelect("agg" + std::to_string(q),
                                              over(queries[q], "s"),
                                              Keep(&got[q]))
                    .ok());
  }
  ASSERT_EQ(engine.scheduler().num_transitions(), 1u);
  auto s = engine.GetBasket("s");
  auto r = engine.GetBasket("r");
  ASSERT_TRUE(s.ok() && r.ok());
  const Schema schema({{"k", DataType::kInt64},
                       {"j", DataType::kInt64},
                       {"v", DataType::kInt64}});
  auto rows = [&](size_t n, auto&& row) {
    Table t(schema);
    for (size_t i = 0; i < n; ++i) EXPECT_TRUE(t.AppendRow(row(i)).ok());
    return t;
  };
  auto v = [](int64_t x) { return Value(x); };
  const std::vector<Table> deliveries = {
      rows(3000, [&](size_t i) -> Row {
        return {v(i), v(i % 7), v(i % 5 == 0 ? -1 : int64_t(i))};
      }),
      rows(8, [&](size_t i) -> Row {
        return {v(1 + i % 2), v(i % 3), v(int64_t(i) - 2)};
      }),
      rows(9, [&](size_t i) -> Row {
        return {i % 3 == 0 ? Value::Null() : v(i % 2), v(i % 2),
                v(i % 4 == 1 ? -5 : int64_t(i))};
      }),
      rows(131072, [&](size_t i) -> Row {
        return {v(i % 4000), v(i % 3), v(int64_t(i % 1000) - 100)};
      }),
      rows(8, [&](size_t i) -> Row {
        return {v(i % 3), v(i % 2), v(int64_t(i) * 11)};
      }),
  };
  for (size_t d = 0; d < deliveries.size(); ++d) {
    ASSERT_TRUE((*s)->Append(deliveries[d], 0).ok());
    ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
    for (size_t q = 0; q < queries.size(); ++q) {
      ASSERT_TRUE((*r)->Append(deliveries[d], 0).ok());
      auto once = session.Execute(over(queries[q], "r"));
      ASSERT_TRUE(once.ok()) << once.status().ToString();
      ASSERT_EQ(got[q].size(), d + 1) << queries[q];
      EXPECT_EQ(got[q][d], Render(*once)) << queries[q] << " delivery " << d;
    }
  }
}

// A projection of bare names, one of which is a session variable and no
// column: it is evaluated as such, and sees the variable's current value.
TEST(FixedCostTest, BareNameOfAVariableIsEvaluated) {
  core::Engine engine(SystemClock::Get());
  Session session(&engine);
  session.set_sharing_enabled(true);
  ASSERT_TRUE(
      session.Execute("create basket s (a int); declare lim int; set lim = 7")
          .ok());
  std::vector<std::string> out;
  ASSERT_TRUE(session
                  .RegisterContinuousSelect(
                      "var1", "select a, lim from [select * from s where a > 1]",
                      Collect(&out))
                  .ok());
  ASSERT_EQ(engine.scheduler().num_transitions(), 1u);
  ASSERT_TRUE(session.Execute("insert into s values (1), (2), (3)").ok());
  ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
  ASSERT_TRUE(session.Execute("set lim = 8").ok());
  ASSERT_TRUE(session.Execute("insert into s values (4)").ok());
  ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
  EXPECT_EQ(out, (std::vector<std::string>{"2|7", "3|7", "4|8"}));
}

// Conjuncts with no column-versus-constant kernel (`a + b <> 10`) under a
// shared parent `a > 0`: the child evaluates them over the parent's
// survivors as candidates. Their estimated selectivities (0.67, 0.9) are
// above the parent's (0.33), so the parent comes first in every query.
// Parent selections keeping most rows, few rows, none, and rows whose `b`
// is NULL all give the rows a hand count gives, with a comparison against
// NULL false (docs/SQL.md). A one-time Execute is no oracle here: its
// WHERE runs the same candidate form.
TEST(FixedCostTest, GenericConjunctUnderASharedParent) {
  core::Engine engine(SystemClock::Get());
  Session session(&engine);
  session.set_sharing_enabled(true);
  ASSERT_TRUE(session.Execute("create basket s (a int, b int)").ok());
  struct Query {
    std::string sql;
    std::function<bool(int64_t a, int64_t b)> cmp;  // the comparison
    bool negated;  // under NOT
    bool project_b;
  };
  const std::vector<Query> queries = {
      {"select a, b from [select * from s where a > 0 and not (a + b <= 3)]",
       [](int64_t a, int64_t b) { return a + b <= 3; }, true, true},
      {"select a, b from [select * from s where a > 0 and a + b <> 10]",
       [](int64_t a, int64_t b) { return a + b != 10; }, false, true},
      {"select a from [select * from s where a > 0 and not (a * b > 12)]",
       [](int64_t a, int64_t b) { return a * b > 12; }, true, false},
  };
  std::vector<std::vector<std::string>> got(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    ASSERT_TRUE(session
                    .RegisterContinuousSelect("gen" + std::to_string(q),
                                              queries[q].sql, Collect(&got[q]))
                    .ok());
  }
  ASSERT_EQ(engine.scheduler().num_transitions(), 1u);
  auto s = engine.GetBasket("s");
  ASSERT_TRUE(s.ok());
  // Rows with a > 0: 15 of 16, 2 of 16, 0 of 4, and 6 of 6 with every
  // other b NULL.
  using Pair = std::pair<int64_t, std::optional<int64_t>>;
  std::vector<std::vector<Pair>> deliveries(4);
  for (int64_t i = 0; i < 16; ++i) deliveries[0].push_back({i, i % 5});
  for (int64_t i = 0; i < 16; ++i) {
    deliveries[1].push_back({i % 8 == 3 ? 9 : -i, i});
  }
  for (int64_t i = 0; i < 4; ++i) deliveries[2].push_back({-i, i});
  for (int64_t i = 0; i < 6; ++i) {
    deliveries[3].push_back({i + 1, i % 2 == 0 ? std::nullopt
                                               : std::optional<int64_t>(i)});
  }
  std::vector<std::vector<std::string>> want(queries.size());
  for (const std::vector<Pair>& rows : deliveries) {
    Table t(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
    for (const auto& [a, b] : rows) {
      ASSERT_TRUE(
          t.AppendRow({Value(a), b.has_value() ? Value(*b) : Value::Null()})
              .ok());
      for (size_t q = 0; q < queries.size(); ++q) {
        const bool cmp = b.has_value() && queries[q].cmp(a, *b);
        if (a > 0 && cmp != queries[q].negated) {
          const std::string b_text = b ? std::to_string(*b) : "NULL";
          want[q].push_back(std::to_string(a) +
                            (queries[q].project_b ? "|" + b_text : ""));
        }
      }
    }
    ASSERT_TRUE((*s)->Append(t, 0).ok());
    ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
  }
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_FALSE(want[q].empty()) << queries[q].sql;
    EXPECT_EQ(got[q], want[q]) << queries[q].sql;
  }
}

// After a seeded run, every dc_plans node and leaf row of a two-branch
// trie holds exactly the rows a hand count over the deliveries gives.
TEST_F(PlanFixture, PlanCountersMatchHandCounts) {
  Exec("create basket s (a int, b int)");
  session_.set_sharing_enabled(true);
  const std::vector<std::pair<std::string, std::string>> queries = {
      {"hc1", "select * from [select * from s where a > 10 and b = 1]"},
      {"hc2", "select * from [select * from s where a > 10 and b = 2]"},
      {"hc3",
       "select b, count(*) from [select * from s where a > 10 and b = 3] "
       "group by b"},
      {"hc4", "select * from [select * from s where a < 5]"},
  };
  for (const auto& [name, sql] : queries) {
    ASSERT_TRUE(session_.RegisterContinuousSelect(name, sql, nullptr).ok());
  }
  ASSERT_EQ(engine_.scheduler().num_transitions(), 1u);
  auto s = engine_.GetBasket("s");
  ASSERT_TRUE(s.ok());
  Random rng(32);
  int64_t total = 0, over10 = 0, under5 = 0, firings3 = 0;
  int64_t b_eq[4] = {0, 0, 0, 0};
  for (int d = 0; d < 40; ++d) {
    Table t(Schema({{"a", DataType::kInt64}, {"b", DataType::kInt64}}));
    const size_t n = 1 + rng.Uniform(50);
    bool any3 = false;
    for (size_t i = 0; i < n; ++i) {
      const int64_t a = static_cast<int64_t>(rng.Uniform(20));
      const int64_t b = static_cast<int64_t>(rng.Uniform(4));
      ASSERT_TRUE(t.AppendRow({Value(a), Value(b)}).ok());
      ++total;
      under5 += a < 5;
      if (a > 10) {
        ++over10;
        ++b_eq[b];
        any3 = any3 || b == 3;
      }
    }
    firings3 += any3;
    ASSERT_TRUE((*s)->Append(t, 0).ok());
    ASSERT_TRUE(engine_.scheduler().RunUntilQuiescent().ok());
  }
  // {rows_in, rows_out} of each of the query's rows, by kind and detail.
  auto counts = [&](const std::string& query) {
    std::map<std::string, std::vector<int64_t>> out;
    auto r = session_.Execute(
        "select kind, detail, rows_in, rows_out from dc_plans where query = "
        "'" + query + "'");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    for (size_t i = 0; r.ok() && i < r->num_rows(); ++i) {
      const Row row = r->GetRow(i);
      out[row[0].string_value() + ":" + row[1].string_value()] = {
          row[2].int_value(), row[3].int_value()};
    }
    return out;
  };
  using Counts = std::vector<int64_t>;
  for (int b = 1; b <= 3; ++b) {
    const std::string q = "hc" + std::to_string(b);
    auto c = counts(q);
    EXPECT_EQ(c["node:replicate"], (Counts{total, total})) << q;
    EXPECT_EQ(c["node:(a > 10)"], (Counts{total, over10})) << q;
    EXPECT_EQ(c["node:(b = " + std::to_string(b) + ")"],
              (Counts{over10, b_eq[b]}))
        << q;
  }
  // The one leaf row of a query.
  auto leaf = [&](const std::string& query) {
    Counts out;
    for (const auto& [key, value] : counts(query)) {
      if (key.rfind("leaf:", 0) == 0) out = value;
    }
    return out;
  };
  EXPECT_EQ(leaf("hc1"), (Counts{b_eq[1], b_eq[1]}));
  EXPECT_EQ(leaf("hc2"), (Counts{b_eq[2], b_eq[2]}));
  // One group per firing that had a row for it.
  EXPECT_EQ(leaf("hc3"), (Counts{b_eq[3], firings3}));
  EXPECT_EQ(counts("hc4")["node:(a < 5)"], (Counts{total, under5}));
  EXPECT_EQ(leaf("hc4"), (Counts{under5, under5}));
}

}  // namespace
}  // namespace datacell::sql::plan
