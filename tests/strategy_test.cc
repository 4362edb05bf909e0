#include <gtest/gtest.h>

#include "core/strategy.h"
#include "util/clock.h"

namespace datacell::core {
namespace {

Schema StreamSchema() {
  return Schema({{"tag", DataType::kTimestamp}, {"payload", DataType::kInt64}});
}

Table MakeBatch(int64_t lo, int64_t hi) {  // payloads lo..hi-1
  Table t(StreamSchema());
  for (int64_t p = lo; p < hi; ++p) {
    EXPECT_TRUE(t.AppendRow({Value(int64_t{0}), Value(p)}).ok());
  }
  return t;
}

// Three queries with disjoint ranges: [0,10), [10,20), [20,30).
std::vector<ContinuousQuery> DisjointQueries() {
  std::vector<ContinuousQuery> qs;
  for (int i = 0; i < 3; ++i) {
    ExprPtr pred = Expr::Bin(
        BinaryOp::kAnd,
        Expr::Bin(BinaryOp::kGe, Expr::Col("payload"), Expr::Lit(i * 10)),
        Expr::Bin(BinaryOp::kLt, Expr::Col("payload"), Expr::Lit((i + 1) * 10)));
    qs.push_back({"q" + std::to_string(i), pred});
  }
  return qs;
}

void CheckDisjointResults(const QueryNetwork& net) {
  ASSERT_EQ(net.outputs.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    Table out = net.outputs[static_cast<size_t>(i)]->Peek();
    EXPECT_EQ(out.num_rows(), 10u);
    auto payload = out.GetColumn("payload");
    ASSERT_TRUE(payload.ok());
    for (size_t r = 0; r < out.num_rows(); ++r) {
      int64_t v = (*payload)->ints()[r];
      EXPECT_GE(v, i * 10);
      EXPECT_LT(v, (i + 1) * 10);
    }
  }
}

class StrategyTest : public ::testing::TestWithParam<int> {
 protected:
  Result<QueryNetwork> Build(size_t batch) {
    switch (GetParam()) {
      case 0:
        return BuildSeparateBaskets(StreamSchema(), DisjointQueries(), batch);
      case 1:
        return BuildSharedBaskets(StreamSchema(), DisjointQueries(), batch);
      default:
        return BuildPartialDeleteChain(StreamSchema(), DisjointQueries(), batch);
    }
  }
};

TEST_P(StrategyTest, DisjointRangesRouteCorrectly) {
  SimulatedClock clock;
  auto net = Build(/*batch=*/30);
  ASSERT_TRUE(net.ok());
  Scheduler sched(&clock);
  net->RegisterAll(&sched);
  ASSERT_TRUE(net->receptor->Deliver(MakeBatch(0, 30), clock.Now()).ok());
  ASSERT_TRUE(sched.RunUntilQuiescent().ok());
  CheckDisjointResults(*net);
}

TEST_P(StrategyTest, BatchThresholdDefersProcessing) {
  SimulatedClock clock;
  auto net = Build(/*batch=*/30);
  ASSERT_TRUE(net.ok());
  Scheduler sched(&clock);
  net->RegisterAll(&sched);
  // Half a batch: nothing may be produced yet.
  ASSERT_TRUE(net->receptor->Deliver(MakeBatch(0, 15), clock.Now()).ok());
  ASSERT_TRUE(sched.RunUntilQuiescent().ok());
  for (const BasketPtr& out : net->outputs) EXPECT_EQ(out->size(), 0u);
  // Completing the batch releases it.
  ASSERT_TRUE(net->receptor->Deliver(MakeBatch(15, 30), clock.Now()).ok());
  ASSERT_TRUE(sched.RunUntilQuiescent().ok());
  CheckDisjointResults(*net);
}

TEST_P(StrategyTest, MultipleBatchesAccumulate) {
  SimulatedClock clock;
  auto net = Build(/*batch=*/30);
  ASSERT_TRUE(net.ok());
  Scheduler sched(&clock);
  net->RegisterAll(&sched);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(net->receptor->Deliver(MakeBatch(0, 30), clock.Now()).ok());
    ASSERT_TRUE(sched.RunUntilQuiescent().ok());
  }
  for (const BasketPtr& out : net->outputs) EXPECT_EQ(out->size(), 40u);
}

TEST_P(StrategyTest, NoLeftoverTuplesInInputs) {
  SimulatedClock clock;
  auto net = Build(/*batch=*/30);
  ASSERT_TRUE(net.ok());
  Scheduler sched(&clock);
  net->RegisterAll(&sched);
  // Payloads 0..29 plus ten tuples (90..99) matching no query: they must
  // still be consumed eventually (no unbounded growth).
  ASSERT_TRUE(net->receptor->Deliver(MakeBatch(0, 20), clock.Now()).ok());
  ASSERT_TRUE(net->receptor->Deliver(MakeBatch(90, 100), clock.Now()).ok());
  ASSERT_TRUE(sched.RunUntilQuiescent().ok());
  for (const BasketPtr& out : net->outputs) {
    // q2 ([20,30)) gets nothing this round.
    (void)out;
  }
  // All stream inputs drained.
  for (const TransitionPtr& t : net->transitions) {
    auto* f = dynamic_cast<Factory*>(t.get());
    ASSERT_NE(f, nullptr);
    for (size_t i = 0; i < f->num_inputs(); ++i) {
      if (f->input(i)->schema().FindField("payload") >= 0) {
        EXPECT_EQ(f->input(i)->size(), 0u)
            << "residue in " << f->input(i)->name();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StrategyTest,
                         ::testing::Values(0, 1, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           switch (info.param) {
                             case 0:
                               return std::string("SeparateBaskets");
                             case 1:
                               return std::string("SharedBaskets");
                             default:
                               return std::string("PartialDeletes");
                           }
                         });

TEST(StrategySemanticsTest, SharedBasketsSingleSharedInput) {
  // Shared strategy must NOT replicate the stream: exactly one basket
  // receives the receptor output.
  auto net = BuildSharedBaskets(StreamSchema(), DisjointQueries(), 1);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->receptor->outputs().size(), 1u);
}

TEST(StrategySemanticsTest, SeparateBasketsReplicate) {
  auto net = BuildSeparateBaskets(StreamSchema(), DisjointQueries(), 1);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->receptor->outputs().size(), 3u);
}

TEST(StrategySemanticsTest, PartialDeletesShareOneBasket) {
  auto net = BuildPartialDeleteChain(StreamSchema(), DisjointQueries(), 1);
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->receptor->outputs().size(), 1u);
}

TEST(StrategySemanticsTest, OverlappingQueriesSeparateSeeAll) {
  // With overlapping predicates, separate baskets deliver the tuple to every
  // matching query (no partial-delete interference).
  SimulatedClock clock;
  std::vector<ContinuousQuery> qs = {
      {"all1", nullptr},
      {"all2", nullptr},
  };
  auto net = BuildSeparateBaskets(StreamSchema(), qs, 5);
  ASSERT_TRUE(net.ok());
  Scheduler sched(&clock);
  net->RegisterAll(&sched);
  ASSERT_TRUE(net->receptor->Deliver(MakeBatch(0, 5), clock.Now()).ok());
  ASSERT_TRUE(sched.RunUntilQuiescent().ok());
  EXPECT_EQ(net->outputs[0]->size(), 5u);
  EXPECT_EQ(net->outputs[1]->size(), 5u);
}

TEST(StrategySemanticsTest, OverlappingQueriesSharedSeeAll) {
  SimulatedClock clock;
  std::vector<ContinuousQuery> qs = {
      {"all1", nullptr},
      {"all2", nullptr},
  };
  auto net = BuildSharedBaskets(StreamSchema(), qs, 5);
  ASSERT_TRUE(net.ok());
  Scheduler sched(&clock);
  net->RegisterAll(&sched);
  ASSERT_TRUE(net->receptor->Deliver(MakeBatch(0, 5), clock.Now()).ok());
  ASSERT_TRUE(sched.RunUntilQuiescent().ok());
  // Both queries see all 5 tuples: the defining property sharing must keep.
  EXPECT_EQ(net->outputs[0]->size(), 5u);
  EXPECT_EQ(net->outputs[1]->size(), 5u);
}

TEST(StrategySemanticsTest, PartialDeletesEarlierQueryStealsOverlap) {
  // The documented behaviour of the chain on overlapping predicates: the
  // first query consumes matched tuples, later ones never see them.
  SimulatedClock clock;
  std::vector<ContinuousQuery> qs = {
      {"ge5", Expr::Bin(BinaryOp::kGe, Expr::Col("payload"), Expr::Lit(5))},
      {"all", nullptr},
  };
  auto net = BuildPartialDeleteChain(StreamSchema(), qs, 10);
  ASSERT_TRUE(net.ok());
  Scheduler sched(&clock);
  net->RegisterAll(&sched);
  ASSERT_TRUE(net->receptor->Deliver(MakeBatch(0, 10), clock.Now()).ok());
  ASSERT_TRUE(sched.RunUntilQuiescent().ok());
  EXPECT_EQ(net->outputs[0]->size(), 5u);  // 5..9
  EXPECT_EQ(net->outputs[1]->size(), 5u);  // 0..4 only
}

}  // namespace
}  // namespace datacell::core
