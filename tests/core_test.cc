#include <gtest/gtest.h>

#include "core/basket_expression.h"
#include "core/engine.h"
#include "core/factory.h"
#include "core/metronome.h"
#include "core/receptor.h"
#include "core/scheduler.h"
#include "util/clock.h"

namespace datacell::core {
namespace {

Schema StreamSchema() {
  return Schema({{"tag", DataType::kTimestamp}, {"payload", DataType::kInt64}});
}

Table MakeBatch(std::initializer_list<int64_t> payloads) {
  Table t(StreamSchema());
  for (int64_t p : payloads) {
    EXPECT_TRUE(t.AppendRow({Value(int64_t{0}), Value(p)}).ok());
  }
  return t;
}

TEST(FactoryTest, FiresOnlyWithInput) {
  SimulatedClock clock;
  auto in = std::make_shared<Basket>("in", StreamSchema());
  auto out = std::make_shared<Basket>("out", in->schema(), false);
  int runs = 0;
  auto f = std::make_shared<Factory>("f", [&](FactoryContext& ctx) -> Status {
    ++runs;
    Table batch = ctx.input(0).TakeAll();
    ASSIGN_OR_RETURN(size_t n, ctx.output(0).AppendAligned(batch, ctx.now()));
    (void)n;
    return Status::OK();
  });
  f->AddInput(in).AddOutput(out);
  EXPECT_FALSE(f->CanFire(clock.Now()));
  ASSERT_TRUE(in->Append(MakeBatch({1, 2}), 0).ok());
  EXPECT_TRUE(f->CanFire(clock.Now()));
  auto worked = f->Fire(clock.Now());
  ASSERT_TRUE(worked.ok());
  EXPECT_TRUE(*worked);
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(in->size(), 0u);
  EXPECT_EQ(out->size(), 2u);
  EXPECT_FALSE(f->CanFire(clock.Now()));
  EXPECT_EQ(f->stats().firings, 1u);
}

TEST(FactoryTest, MinTuplesThreshold) {
  SimulatedClock clock;
  auto in = std::make_shared<Basket>("in", StreamSchema());
  auto f = std::make_shared<Factory>(
      "f", [](FactoryContext&) { return Status::OK(); });
  f->AddInput(in, /*min_tuples=*/3);
  ASSERT_TRUE(in->Append(MakeBatch({1, 2}), 0).ok());
  EXPECT_FALSE(f->CanFire(clock.Now()));
  ASSERT_TRUE(in->Append(MakeBatch({3}), 0).ok());
  EXPECT_TRUE(f->CanFire(clock.Now()));
}

TEST(FactoryTest, MultiInputNeedsAll) {
  SimulatedClock clock;
  auto a = std::make_shared<Basket>("a", StreamSchema());
  auto b = std::make_shared<Basket>("b", StreamSchema());
  auto f = std::make_shared<Factory>(
      "f", [](FactoryContext&) { return Status::OK(); });
  f->AddInput(a).AddInput(b);
  ASSERT_TRUE(a->Append(MakeBatch({1}), 0).ok());
  EXPECT_FALSE(f->CanFire(clock.Now()));
  ASSERT_TRUE(b->Append(MakeBatch({2}), 0).ok());
  EXPECT_TRUE(f->CanFire(clock.Now()));
}

TEST(FactoryTest, StatePersistsAcrossFirings) {
  // The paper's saved-execution-state semantics: a running sum held by the
  // factory, folded in batch by batch.
  SimulatedClock clock;
  auto in = std::make_shared<Basket>("in", StreamSchema());
  auto sum = std::make_shared<int64_t>(0);
  auto f = std::make_shared<Factory>("agg", [sum](FactoryContext& ctx) -> Status {
    Table batch = ctx.input(0).TakeAll();
    ASSIGN_OR_RETURN(const Column* payload, batch.GetColumn("payload"));
    for (const int64_t v : payload->ints()) *sum += v;
    return Status::OK();
  });
  f->AddInput(in);
  ASSERT_TRUE(in->Append(MakeBatch({1, 2}), 0).ok());
  ASSERT_TRUE(f->Fire(clock.Now()).ok());
  ASSERT_TRUE(in->Append(MakeBatch({10}), 0).ok());
  ASSERT_TRUE(f->Fire(clock.Now()).ok());
  EXPECT_EQ(*sum, 13);
}

TEST(ReceptorTest, DeliverReplicatesToAllOutputs) {
  auto b1 = std::make_shared<Basket>("b1", StreamSchema());
  auto b2 = std::make_shared<Basket>("b2", StreamSchema());
  Receptor r("r");
  r.AddOutput(b1).AddOutput(b2);
  auto n = r.Deliver(MakeBatch({1, 2, 3}), 5);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(b1->size(), 3u);
  EXPECT_EQ(b2->size(), 3u);
}

TEST(ReceptorTest, PullModeFiresFromSource) {
  SimulatedClock clock;
  auto b = std::make_shared<Basket>("b", StreamSchema());
  int polls = 0;
  auto source = [&]() -> Result<std::optional<Table>> {
    ++polls;
    if (polls > 2) return std::optional<Table>();
    return std::optional<Table>(MakeBatch({polls}));
  };
  auto r = std::make_shared<Receptor>("r", source);
  r->AddOutput(b);
  ASSERT_TRUE(*r->Fire(clock.Now()));
  ASSERT_TRUE(*r->Fire(clock.Now()));
  EXPECT_FALSE(*r->Fire(clock.Now()));
  EXPECT_EQ(b->size(), 2u);
}

TEST(EmitterTest, DrainsInputsToSink) {
  SimulatedClock clock;
  auto b = std::make_shared<Basket>("b", StreamSchema());
  size_t delivered = 0;
  Emitter e("e", [&](const Table& batch) -> Status {
    delivered += batch.num_rows();
    return Status::OK();
  });
  e.AddInput(b);
  EXPECT_FALSE(e.CanFire(clock.Now()));
  ASSERT_TRUE(b->Append(MakeBatch({1, 2}), 0).ok());
  EXPECT_TRUE(e.CanFire(clock.Now()));
  ASSERT_TRUE(*e.Fire(clock.Now()));
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(b->size(), 0u);
  EXPECT_EQ(e.tuples_emitted(), 2u);
}

TEST(SchedulerTest, PipelineRunsToQuiescence) {
  // receptor basket -> f1 -> mid -> f2 -> out (the query-chain topology).
  SimulatedClock clock;
  auto b0 = std::make_shared<Basket>("b0", StreamSchema());
  auto b1 = std::make_shared<Basket>("b1", b0->schema(), false);
  auto b2 = std::make_shared<Basket>("b2", b0->schema(), false);

  auto forward = [](BasketPtr from, BasketPtr to, ExprPtr pred) {
    auto be = std::make_shared<BasketExpression>(from);
    if (pred) be->Where(pred);
    be->Consume(ConsumePolicy::kBatch);
    auto f = std::make_shared<Factory>(
        "fwd_" + from->name(), [be, to](FactoryContext& ctx) -> Status {
          ASSIGN_OR_RETURN(Table result, be->Evaluate(ctx.eval()));
          if (result.num_rows() > 0) {
            ASSIGN_OR_RETURN(size_t n, to->AppendAligned(result, ctx.now()));
            (void)n;
          }
          return Status::OK();
        });
    f->AddInput(from);
    f->AddOutput(to);
    return f;
  };

  Scheduler sched(&clock);
  sched.Register(forward(
      b0, b1, Expr::Bin(BinaryOp::kGt, Expr::Col("payload"), Expr::Lit(10))));
  sched.Register(forward(
      b1, b2, Expr::Bin(BinaryOp::kLt, Expr::Col("payload"), Expr::Lit(100))));

  ASSERT_TRUE(b0->Append(MakeBatch({5, 50, 500}), 0).ok());
  auto rounds = sched.RunUntilQuiescent();
  ASSERT_TRUE(rounds.ok());
  EXPECT_GE(*rounds, 1u);
  EXPECT_EQ(b2->size(), 1u);
  EXPECT_EQ(b2->Peek().GetRow(0)[1], Value(50));
  EXPECT_EQ(b0->size(), 0u);
  EXPECT_EQ(b1->size(), 0u);
}

TEST(SchedulerTest, QuiescentImmediatelyWhenEmpty) {
  SimulatedClock clock;
  Scheduler sched(&clock);
  auto b = std::make_shared<Basket>("b", StreamSchema());
  auto f = std::make_shared<Factory>(
      "noop", [](FactoryContext&) { return Status::OK(); });
  f->AddInput(b);
  sched.Register(f);
  auto rounds = sched.RunUntilQuiescent();
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(*rounds, 0u);
}

TEST(SchedulerTest, ThreadedModeProcesses) {
  SystemClock* clock = SystemClock::Get();
  auto in = std::make_shared<Basket>("in", StreamSchema());
  auto out = std::make_shared<Basket>("out", in->schema(), false);
  auto f = std::make_shared<Factory>("f", [&](FactoryContext& ctx) -> Status {
    Table batch = ctx.input(0).TakeAll();
    ASSIGN_OR_RETURN(size_t n, ctx.output(0).AppendAligned(batch, ctx.now()));
    (void)n;
    return Status::OK();
  });
  f->AddInput(in);
  f->AddOutput(out);
  Scheduler sched(clock);
  sched.Register(f);
  ASSERT_TRUE(sched.Start().ok());
  ASSERT_TRUE(in->Append(MakeBatch({1, 2, 3}), clock->Now()).ok());
  // Wait for the scheduler thread to drain the input.
  for (int i = 0; i < 1000 && out->size() < 3; ++i) clock->SleepFor(1000);
  sched.Stop();
  EXPECT_EQ(out->size(), 3u);
}

TEST(MetronomeTest, EmitsMarkersAndCatchesUp) {
  SimulatedClock clock(0);
  auto hb = std::make_shared<Basket>("hb", StreamSchema());
  Metronome m("met", hb, /*start=*/100, /*interval=*/100);
  EXPECT_FALSE(m.CanFire(clock.Now()));
  clock.Advance(350);  // ticks at 100, 200, 300 are due
  ASSERT_TRUE(m.CanFire(clock.Now()));
  ASSERT_TRUE(*m.Fire(clock.Now()));
  EXPECT_EQ(hb->size(), 3u);
  EXPECT_EQ(m.next_tick(), 400);
  // Marker rows are null-valued by default.
  Table t = hb->Peek();
  EXPECT_TRUE(t.GetRow(0)[0].is_null());
  EXPECT_TRUE(t.GetRow(0)[1].is_null());
}

TEST(MetronomeTest, HeartbeatCarriesEpoch) {
  SimulatedClock clock(0);
  auto hb = std::make_shared<Basket>("hb", StreamSchema());
  TransitionPtr m = MakeHeartbeat("hb_t", hb, "tag", 50, 50);
  clock.Advance(120);
  ASSERT_TRUE(*m->Fire(clock.Now()));
  Table t = hb->Peek();
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.GetRow(0)[0], Value(int64_t{50}));
  EXPECT_EQ(t.GetRow(1)[0], Value(int64_t{100}));
  EXPECT_TRUE(t.GetRow(0)[1].is_null());
}

TEST(EngineTest, BasketLifecycle) {
  SimulatedClock clock;
  Engine engine(&clock);
  auto b = engine.CreateBasket("s", StreamSchema());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(engine.HasBasket("s"));
  EXPECT_EQ(engine.CreateBasket("s", StreamSchema()).status().code(),
            StatusCode::kAlreadyExists);
  auto got = engine.GetBasket("s");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), b->get());
  ASSERT_TRUE(engine.DropBasket("s").ok());
  EXPECT_FALSE(engine.HasBasket("s"));
}

TEST(EngineTest, CreateBoundedBasketInstallsCapacity) {
  SimulatedClock clock;
  Engine engine(&clock);
  auto b = engine.CreateBoundedBasket("s", StreamSchema(), /*capacity=*/64);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*b)->capacity(), 64u);
  EXPECT_EQ((*b)->low_watermark(), 32u);
  EXPECT_EQ(engine.GetBasket("s")->get(), b->get());
}

TEST(EngineTest, BasketAndTableNamesCollide) {
  SimulatedClock clock;
  Engine engine(&clock);
  ASSERT_TRUE(engine.catalog().CreateTable("t", StreamSchema()).ok());
  EXPECT_EQ(engine.CreateBasket("t", StreamSchema()).status().code(),
            StatusCode::kAlreadyExists);
}

TEST(EngineTest, Variables) {
  SimulatedClock clock;
  Engine engine(&clock);
  engine.SetVariable("cnt", Value(0));
  ASSERT_TRUE(engine.HasVariable("cnt"));
  engine.SetVariable("cnt", Value(5));
  EXPECT_EQ(*engine.GetVariable("cnt"), Value(5));
  EXPECT_FALSE(engine.GetVariable("nope").ok());
  auto snap = engine.VariablesSnapshot();
  EXPECT_EQ(snap.at("cnt"), Value(5));
}

TEST(FactoryTest, StatsAccumulateAcrossFirings) {
  SimulatedClock clock;
  auto in = std::make_shared<Basket>("in", StreamSchema());
  auto f = std::make_shared<Factory>("f", [](FactoryContext& ctx) -> Status {
    ctx.input(0).Clear();
    return Status::OK();
  });
  f->AddInput(in);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(in->Append(MakeBatch({1}), 0).ok());
    ASSERT_TRUE(f->Fire(clock.Now()).ok());
  }
  EXPECT_EQ(f->stats().firings, 3u);
  EXPECT_GE(f->stats().total_exec, f->stats().last_exec);
}

TEST(FactoryTest, FireReportsNoWorkWhenNothingChanges) {
  SimulatedClock clock;
  auto in = std::make_shared<Basket>("in", StreamSchema());
  auto f = std::make_shared<Factory>(
      "noop", [](FactoryContext&) { return Status::OK(); });
  f->AddInput(in);
  ASSERT_TRUE(in->Append(MakeBatch({1}), 0).ok());
  auto worked = f->Fire(clock.Now());
  ASSERT_TRUE(worked.ok());
  EXPECT_FALSE(*worked);  // body touched nothing
}

// Quiescence is decided by whether a firing moved tokens. These pin down
// what counts as movement, both for one Fire and for a scheduler round.
TEST(QuiescenceTest, ConsumingAndAppendingAsManyRowsIsWork) {
  SimulatedClock clock;
  auto in = std::make_shared<Basket>("in", StreamSchema());
  auto out = std::make_shared<Basket>("out", in->schema(), false);
  // k rows leave `in` and k rows enter `out`: the total is unchanged.
  auto f = std::make_shared<Factory>("move", [](FactoryContext& ctx) -> Status {
    Table batch = ctx.input(0).TakeAll();
    ASSIGN_OR_RETURN(size_t n, ctx.output(0).AppendAligned(batch, ctx.now()));
    (void)n;
    return Status::OK();
  });
  f->AddInput(in).AddOutput(out);
  ASSERT_TRUE(in->Append(MakeBatch({1, 2, 3}), 0).ok());
  auto worked = f->Fire(clock.Now());
  ASSERT_TRUE(worked.ok());
  EXPECT_TRUE(*worked);
  EXPECT_EQ(out->size(), 3u);

  Scheduler sched(&clock);
  sched.Register(f);
  ASSERT_TRUE(in->Append(MakeBatch({4, 5}), 0).ok());
  auto rounds = sched.RunUntilQuiescent();
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(*rounds, 1u);
  EXPECT_EQ(in->size(), 0u);
  EXPECT_EQ(out->size(), 5u);
}

TEST(QuiescenceTest, PeekOnlyIsNoWork) {
  SimulatedClock clock;
  auto in = std::make_shared<Basket>("in", StreamSchema());
  int runs = 0;
  auto f = std::make_shared<Factory>("peek", [&](FactoryContext& ctx) -> Status {
    ++runs;
    const Table snapshot = ctx.input(0).Peek();
    EXPECT_EQ(snapshot.num_rows(), 2u);
    return Status::OK();
  });
  f->AddInput(in);
  ASSERT_TRUE(in->Append(MakeBatch({1, 2}), 0).ok());
  auto worked = f->Fire(clock.Now());
  ASSERT_TRUE(worked.ok());
  EXPECT_FALSE(*worked);

  // Still eligible (its rows stay), yet a round that only peeks is idle.
  Scheduler sched(&clock);
  sched.Register(f);
  auto rounds = sched.RunUntilQuiescent();
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(*rounds, 0u);
  EXPECT_GE(runs, 2);
  EXPECT_TRUE(f->CanFire(clock.Now()));
}

TEST(QuiescenceTest, AppendsAllDroppedByConstraintAreNoWork) {
  SimulatedClock clock;
  auto in = std::make_shared<Basket>("in", StreamSchema());
  auto out = std::make_shared<Basket>("out", in->schema(), false);
  out->AddConstraint(
      Expr::Bin(BinaryOp::kLt, Expr::Col("payload"), Expr::Lit(0)));
  // Appends every row it sees without consuming any; the constraint
  // drops them all, so no place changes.
  auto f = std::make_shared<Factory>("drop", [](FactoryContext& ctx) -> Status {
    const Table snapshot = ctx.input(0).Peek();
    ASSIGN_OR_RETURN(size_t n,
                     ctx.output(0).AppendAligned(snapshot, ctx.now()));
    EXPECT_EQ(n, 0u);
    return Status::OK();
  });
  f->AddInput(in).AddOutput(out);
  ASSERT_TRUE(in->Append(MakeBatch({1, 2, 3}), 0).ok());
  auto worked = f->Fire(clock.Now());
  ASSERT_TRUE(worked.ok());
  EXPECT_FALSE(*worked);
  EXPECT_EQ(out->stats().dropped, 3u);

  Scheduler sched(&clock);
  sched.Register(f);
  auto rounds = sched.RunUntilQuiescent();
  ASSERT_TRUE(rounds.ok());
  EXPECT_EQ(*rounds, 0u);
  EXPECT_EQ(out->size(), 0u);
  EXPECT_EQ(in->size(), 3u);
}

TEST(BasketTest, PeekRowsSelectsWithoutConsuming) {
  Basket b("b", StreamSchema());
  ASSERT_TRUE(b.Append(MakeBatch({10, 20, 30}), 0).ok());
  Table two = b.PeekRows({0, 2});
  ASSERT_EQ(two.num_rows(), 2u);
  EXPECT_EQ(two.GetRow(0)[1], Value(10));
  EXPECT_EQ(two.GetRow(1)[1], Value(30));
  EXPECT_EQ(b.size(), 3u);
}

TEST(EngineTest, RegisterConvenienceWiresScheduler) {
  SimulatedClock clock;
  Engine engine(&clock);
  auto b = std::make_shared<Basket>("b", StreamSchema());
  bool fired = false;
  auto f = engine.Register(std::make_shared<Factory>(
      "f", [&fired, b](FactoryContext&) -> Status {
        fired = true;
        b->Clear();
        return Status::OK();
      }));
  f->AddInput(b);
  ASSERT_TRUE(b->Append(MakeBatch({1}), 0).ok());
  ASSERT_TRUE(engine.scheduler().RunUntilQuiescent().ok());
  EXPECT_TRUE(fired);
  EXPECT_EQ(engine.scheduler().num_transitions(), 1u);
}

TEST(IntegrationTest, SlidingWindowJoinWithTriggerBasket) {
  // The paper's §4.1 example: a join over two baskets guarded by an
  // auxiliary trigger basket so the join runs only when new tuples arrived.
  SimulatedClock clock;
  auto b1 = std::make_shared<Basket>("b1", StreamSchema());
  auto b2 = std::make_shared<Basket>("b2", StreamSchema());
  auto trig = std::make_shared<Basket>("b3", Schema({{"flag", DataType::kBool}}),
                                       false);
  auto out = std::make_shared<Basket>(
      "out", Schema({{"payload", DataType::kInt64}}), false);

  int join_runs = 0;
  auto join = std::make_shared<Factory>("join", [&](FactoryContext& ctx) -> Status {
    ++join_runs;
    trig->Clear();
    // Join on payload; consume matched pairs from both sides (gather).
    Table left = b1->Peek();
    Table right = b2->Peek();
    SelVector lsel, rsel;
    for (uint32_t i = 0; i < left.num_rows(); ++i) {
      for (uint32_t j = 0; j < right.num_rows(); ++j) {
        if (left.column(1).ints()[i] == right.column(1).ints()[j]) {
          lsel.push_back(i);
          rsel.push_back(j);
          Table row(out->schema());
          RETURN_NOT_OK(row.AppendRow({Value(left.column(1).ints()[i])}));
          ASSIGN_OR_RETURN(size_t n, out->AppendAligned(row, ctx.now()));
          (void)n;
        }
      }
    }
    RETURN_NOT_OK(b1->EraseRows(lsel));
    RETURN_NOT_OK(b2->EraseRows(rsel));
    return Status::OK();
  });
  join->AddInput(trig);
  join->AddInput(b1, 1);
  join->AddInput(b2, 1);
  join->AddOutput(out);

  Scheduler sched(&clock);
  sched.Register(join);

  // Tuples on b1 only: no trigger, join must not run.
  ASSERT_TRUE(b1->Append(MakeBatch({7}), 0).ok());
  ASSERT_TRUE(sched.RunUntilQuiescent().ok());
  EXPECT_EQ(join_runs, 0);

  // Matching tuple lands on b2 and the trigger is raised.
  ASSERT_TRUE(b2->Append(MakeBatch({7}), 0).ok());
  Table token(trig->schema());
  ASSERT_TRUE(token.AppendRow({Value(true)}).ok());
  ASSERT_TRUE(trig->AppendAligned(token, 0).ok());
  ASSERT_TRUE(sched.RunUntilQuiescent().ok());
  EXPECT_EQ(join_runs, 1);
  EXPECT_EQ(out->size(), 1u);
  // Non-matched tuples would remain; here both matched and were removed.
  EXPECT_EQ(b1->size(), 0u);
  EXPECT_EQ(b2->size(), 0u);
}

}  // namespace
}  // namespace datacell::core
