// Micro-benchmarks of the kernel primitives the DataCell is built from:
// selection, the delete-with-shift operator (§6.2's custom operator), hash
// join, aggregation, basket append/consume, basket-expression evaluation,
// one SQL leaf firing and one fused-root firing end to end, and the
// network codec. google-benchmark harness.
//
// The firing benchmarks also report `allocs_per_firing`: heap allocations
// made inside the timed firing, counted by the replacement global
// operator new below. They and BM_GroupByAggregate report
// `minflt_per_firing` too: the process's minor page faults
// (getrusage ru_minflt) per firing, which counts the large buffers a
// firing faults in afresh instead of reusing (column/recycler.h).

#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>
#include <numeric>
#include <string>

#include "core/basket.h"
#include "core/basket_expression.h"
#include "expr/eval.h"
#include "net/codec.h"
#include "ops/aggregate.h"
#include "ops/join.h"
#include "ops/select.h"
#include "ops/sort.h"
#include "sql/session.h"
#include "util/clock.h"
#include "util/random.h"

namespace {
// Every operator new in the process bumps this (relaxed: only its deltas
// around a firing on the benchmark thread are read).
std::atomic<uint64_t> g_allocs{0};
}  // namespace

// The library's array forms forward to these. All out of line, so the
// compiler never pairs the malloc/free inside with a new-expression.
[[gnu::noinline]] void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace datacell {
namespace {

// Minor page faults of the whole process so far.
uint64_t MinorFaults() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_minflt);
}

void ReportFaults(benchmark::State& state, uint64_t faults) {
  state.counters["minflt_per_firing"] = benchmark::Counter(
      static_cast<double>(faults), benchmark::Counter::kAvgIterations);
}

// What the timed firings cost besides time, summed over iterations.
struct FiringCost {
  uint64_t allocs = 0;
  uint64_t faults = 0;
};

// Times `fire` and adds the allocations and page faults it makes to
// `*cost`.
template <typename F>
void TimedFiring(benchmark::State& state, FiringCost* cost, F&& fire) {
  const uint64_t f0 = MinorFaults();
  const uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  fire();
  const auto t1 = std::chrono::steady_clock::now();
  const uint64_t a1 = g_allocs.load(std::memory_order_relaxed);
  state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  cost->allocs += a1 - a0;
  cost->faults += MinorFaults() - f0;
}

void ReportCost(benchmark::State& state, const FiringCost& cost) {
  state.counters["allocs_per_firing"] = benchmark::Counter(
      static_cast<double>(cost.allocs), benchmark::Counter::kAvgIterations);
  ReportFaults(state, cost.faults);
}

Schema StreamSchema() {
  return Schema({{"tag", DataType::kTimestamp}, {"payload", DataType::kInt64}});
}

Table MakeTuples(size_t n, uint64_t seed = 7) {
  Random rng(seed);
  Table t(StreamSchema());
  t.column(0).ints().reserve(n);
  t.column(1).ints().reserve(n);
  for (size_t i = 0; i < n; ++i) {
    t.column(0).AppendInt(static_cast<int64_t>(i));
    t.column(1).AppendInt(static_cast<int64_t>(rng.Uniform(10'000)));
  }
  return t;
}

void BM_SelectRange(benchmark::State& state) {
  Table t = MakeTuples(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto sel = ops::SelectRange(t, "payload", Value(100), true, Value(110),
                                false);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SelectRange)->Arg(10'000)->Arg(100'000)->Arg(1'000'000);

void BM_PredicateFastPath(benchmark::State& state) {
  Table t = MakeTuples(static_cast<size_t>(state.range(0)));
  ExprPtr pred = Expr::Bin(
      BinaryOp::kAnd,
      Expr::Bin(BinaryOp::kGe, Expr::Col("payload"), Expr::Lit(100)),
      Expr::Bin(BinaryOp::kLt, Expr::Col("payload"), Expr::Lit(110)));
  EvalContext ctx;
  for (auto _ : state) {
    auto sel = EvalPredicate(t, *pred, ctx);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredicateFastPath)->Arg(100'000)->Arg(1'000'000);

// Ablation: the same predicate forced through the generic boolean-column
// evaluator (a double NOT defeats the column-vs-constant fast path), to
// quantify the candidate-list select pattern.
void BM_PredicateGenericPath(benchmark::State& state) {
  Table t = MakeTuples(static_cast<size_t>(state.range(0)));
  ExprPtr cmp = Expr::Bin(
      BinaryOp::kAnd,
      Expr::Bin(BinaryOp::kGe, Expr::Col("payload"), Expr::Lit(100)),
      Expr::Bin(BinaryOp::kLt, Expr::Col("payload"), Expr::Lit(110)));
  ExprPtr pred = Expr::Un(UnaryOp::kNot, Expr::Un(UnaryOp::kNot, cmp));
  EvalContext ctx;
  for (auto _ : state) {
    auto sel = EvalPredicate(t, *pred, ctx);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PredicateGenericPath)->Arg(100'000)->Arg(1'000'000);

// The one-pass chain kernel on a trie node's residual, `payload * 3 + 7 <
// k` over n candidate rows (13107 ~ the survivors of `payload < 1000` in
// a 131072-row delivery), against the generic evaluator (double NOT), which
// materializes the broadcast literals and each intermediate column.
void ChainPredicate(benchmark::State& state, bool generic) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table t = MakeTuples(n);
  ExprPtr pred = Expr::Bin(
      BinaryOp::kLt,
      Expr::Bin(BinaryOp::kAdd,
                Expr::Bin(BinaryOp::kMul, Expr::Lit(3), Expr::Col("payload")),
                Expr::Lit(7)),
      Expr::Lit(15'000));
  if (generic) pred = Expr::Un(UnaryOp::kNot, Expr::Un(UnaryOp::kNot, pred));
  SelVector cands(n);
  std::iota(cands.begin(), cands.end(), 0u);
  EvalContext ctx;
  for (auto _ : state) {
    auto sel = EvalPredicateOn(t, *pred, cands, ctx);
    benchmark::DoNotOptimize(sel);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
void BM_ChainKernel(benchmark::State& state) { ChainPredicate(state, false); }
void BM_ChainGenericPath(benchmark::State& state) {
  ChainPredicate(state, true);
}
BENCHMARK(BM_ChainKernel)->Arg(8)->Arg(13'107);
BENCHMARK(BM_ChainGenericPath)->Arg(8)->Arg(13'107);

// The paper's custom operator: remove a tuple set and shift survivors in
// one pass (vs. re-materializing the survivors with Take).
void BM_DeleteWithShift(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table base = MakeTuples(n);
  SelVector every10;
  for (uint32_t i = 0; i < n; i += 10) every10.push_back(i);
  SelVector all(n);
  std::iota(all.begin(), all.end(), 0);
  for (auto _ : state) {
    state.PauseTiming();
    // A private copy: `Table t = base` shares base's buffers, so the timed
    // erase would include the copy-on-write detach of every column.
    Table t = base.Take(all);
    state.ResumeTiming();
    benchmark::DoNotOptimize(t.EraseRows(every10));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeleteWithShift)->Arg(100'000)->Arg(1'000'000);

void BM_DeleteByRematerialize(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table base = MakeTuples(n);
  SelVector keep;
  for (uint32_t i = 0; i < n; ++i) {
    if (i % 10 != 0) keep.push_back(i);
  }
  for (auto _ : state) {
    Table survivors = base.Take(keep);
    benchmark::DoNotOptimize(survivors);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DeleteByRematerialize)->Arg(100'000)->Arg(1'000'000);

void BM_HashJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table left = MakeTuples(n, 1);
  Table right = MakeTuples(n / 4, 2);
  for (auto _ : state) {
    auto m = ops::HashJoinIndices(left, right, {{"payload", "payload"}});
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoin)->Arg(10'000)->Arg(100'000);

void BM_GroupByAggregate(benchmark::State& state) {
  Table t = MakeTuples(static_cast<size_t>(state.range(0)));
  EvalContext ctx;
  std::vector<ops::GroupItem> groups = {
      {Expr::Bin(BinaryOp::kMod, Expr::Col("payload"), Expr::Lit(100)), "g"}};
  std::vector<ops::AggItem> aggs = {
      {ops::AggFunc::kCountStar, nullptr, "n"},
      {ops::AggFunc::kAvg, Expr::Col("payload"), "avg"}};
  const uint64_t f0 = MinorFaults();
  for (auto _ : state) {
    auto out = ops::Aggregate(t, groups, aggs, ctx);
    benchmark::DoNotOptimize(out);
  }
  ReportFaults(state, MinorFaults() - f0);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GroupByAggregate)->Arg(100'000);

void BM_BasketAppendTake(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table batch = MakeTuples(n);
  core::Basket basket("b", StreamSchema());
  for (auto _ : state) {
    auto acc = basket.Append(batch, 0);
    benchmark::DoNotOptimize(acc);
    Table out = basket.TakeAll();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BasketAppendTake)->Arg(10'000)->Arg(100'000);

void BM_BasketExpressionWindow(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table batch = MakeTuples(n);
  auto basket = std::make_shared<core::Basket>("b", StreamSchema());
  core::BasketExpression be(basket);
  be.Where(Expr::Bin(BinaryOp::kLt, Expr::Col("payload"), Expr::Lit(10)));
  be.Consume(core::ConsumePolicy::kBatch);
  EvalContext ctx;
  for (auto _ : state) {
    auto acc = basket->Append(batch, 0);
    benchmark::DoNotOptimize(acc);
    auto out = be.Evaluate(ctx);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BasketExpressionWindow)->Arg(10'000)->Arg(100'000);

// One firing of a one-query shared net, end to end: the fused root takes
// the delivered rows, its trie evaluates the query's whole predicate, and
// the query's leaf, inlined in the root, runs the rest of its prepared
// chain over the survivors and hands the result to a sink. The leaf is a
// pass-through window (`take` then project) or a pass-through window
// feeding a group-by. Only the scheduler round that fires the root is
// timed; the rows are appended to the source outside the timed region.
void LeafFiring(benchmark::State& state, const std::string& sql) {
  const size_t n = static_cast<size_t>(state.range(0));
  core::Engine engine(SystemClock::Get());
  sql::Session session(&engine);
  if (!session.Execute("create basket s (id int, k int, payload int)").ok()) {
    state.SkipWithError("create basket failed");
    return;
  }
  session.set_sharing_enabled(true);
  uint64_t rows_out = 0;
  auto root = session.RegisterContinuousSelect(
      "q", sql, [&rows_out](const Table& t) -> Status {
        rows_out += t.num_rows();
        return Status::OK();
      });
  if (!root.ok()) {
    state.SkipWithError(root.status().ToString().c_str());
    return;
  }
  if (engine.scheduler().num_transitions() != 1) {
    state.SkipWithError("the leaf is not inlined in the root");
    return;
  }
  const core::BasketPtr source = (*root)->input(0);
  Random rng(11);
  Table batch(Schema({{"id", DataType::kInt64},
                      {"k", DataType::kInt64},
                      {"payload", DataType::kInt64}}));
  for (size_t i = 0; i < n; ++i) {
    batch.column(0).AppendInt(static_cast<int64_t>(i));
    batch.column(1).AppendInt(static_cast<int64_t>(rng.Uniform(1024)));
    batch.column(2).AppendInt(8000 + static_cast<int64_t>(rng.Uniform(2000)));
  }
  core::Scheduler& scheduler = engine.scheduler();
  FiringCost cost;
  for (auto _ : state) {
    auto appended = source->Append(batch, 0);
    benchmark::DoNotOptimize(appended);
    Result<bool> fired = false;
    TimedFiring(state, &cost, [&] { fired = scheduler.RunOnce(); });
    if (!fired.ok() || !*fired) {
      state.SkipWithError(fired.ok() ? "the root did not fire"
                                     : fired.status().ToString().c_str());
      return;
    }
  }
  benchmark::DoNotOptimize(rows_out);
  state.SetItemsProcessed(state.iterations() * state.range(0));
  ReportCost(state, cost);
}

void BM_LeafFirePassThrough(benchmark::State& state) {
  LeafFiring(state, "select * from [select * from s where payload >= 8000]");
}
BENCHMARK(BM_LeafFirePassThrough)->Arg(8)->Arg(32'768)->UseManualTime();

void BM_LeafFireGroupBy(benchmark::State& state) {
  LeafFiring(state,
             "select k, count(*), sum(payload) from [select * from s where "
             "payload >= 8000] group by k");
}
BENCHMARK(BM_LeafFireGroupBy)->Arg(8)->Arg(32'768)->UseManualTime();

// Registers query i (0..31) of perfbench's 32 standing queries over `s`
// (sql_workloads.cc): 24 filters sharing `payload < 1000`, then 8
// group-bys sharing `payload >= 8000`. The statements are built by
// appends, which keeps GCC 12's -Wrestrict false positive on
// `"lit" + string` quiet at -O3.
bool RegisterSetQuery(sql::Session& session, int i,
                      const core::Emitter::Sink& sink) {
  auto add = [&](const char* prefix, int k, const std::string& head, int n,
                 const char* tail) {
    std::string name = prefix;
    name += std::to_string(k);
    std::string sql = head;
    sql += std::to_string(n);
    sql += tail;
    return session.RegisterContinuousSelect(name, sql, sink).ok();
  };
  if (i < 24) {
    return add("f", i,
               "select * from [select * from s where payload < 1000 and "
               "payload * 3 + 7 < ",
               307 + 120 * i, "]");
  }
  return add("g", i - 24,
             "select k, count(*), sum(payload) from [select * from s where "
             "payload >= 8000 and payload % 8 <> ",
             i - 24, "] group by k");
}

bool RegisterQuerySet(sql::Session& session, const core::Emitter::Sink& sink) {
  for (int i = 0; i < 32; ++i) {
    if (!RegisterSetQuery(session, i, sink)) return false;
  }
  return true;
}

// Query i of Fig 5b's disjoint range queries: 9 payload values each.
bool RegisterRangeQuery(sql::Session& session, int i) {
  std::string name = "r";
  name += std::to_string(i);
  std::string sql = "select * from [select * from s where payload >= ";
  sql += std::to_string(9 * i);
  sql += " and payload < ";
  sql += std::to_string(9 * i + 9);
  sql += "]";
  return session.RegisterContinuousSelect(name, sql, nullptr).ok();
}

// Registration of the standing-query set above on a fresh Session with
// sharing on: parse, prepare, trie layouts and factory wiring, timed
// per whole set. Reports `allocs_per_registration`: heap allocations per
// registered query.
void BM_RegisterQuerySet(benchmark::State& state) {
  uint64_t allocs = 0;
  for (auto _ : state) {
    core::Engine engine(SystemClock::Get());
    sql::Session session(&engine);
    session.set_sharing_enabled(true);
    if (!session.Execute("create basket s (id int, k int, payload int)").ok()) {
      state.SkipWithError("create basket failed");
      return;
    }
    const uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    const bool ok = RegisterQuerySet(session, nullptr);
    const auto t1 = std::chrono::steady_clock::now();
    allocs += g_allocs.load(std::memory_order_relaxed) - a0;
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    if (!ok) {
      state.SkipWithError("register failed");
      return;
    }
  }
  state.counters["allocs_per_registration"] = benchmark::Counter(
      static_cast<double>(allocs) /
      static_cast<double>(state.range(0) * state.iterations()));
}
BENCHMARK(BM_RegisterQuerySet)
    ->Arg(32)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// Query i of a set whose leaves keep state: a `top 2` window over the
// survivors of its own predicate, so each gets a leaf basket and factory.
bool RegisterTopQuery(sql::Session& session, int i) {
  std::string name = "t";
  name += std::to_string(i);
  std::string sql = "select * from [select top 2 * from s where payload > ";
  sql += std::to_string(i);
  sql += "]";
  return session.RegisterContinuousSelect(name, sql, nullptr).ok();
}

// The n-th registration of `add`'s queries on a fresh Session with sharing
// on, after n - 1 standing ones. Only the n-th is timed; it reports
// `allocs_per_registration` (its heap allocations) and
// `all_registrations_ms` (all n registrations, untimed by the harness).
template <typename Add>
void RegisterNth(benchmark::State& state, const Add& add) {
  const int n = static_cast<int>(state.range(0));
  uint64_t allocs = 0;
  double all_ms = 0;
  for (auto _ : state) {
    core::Engine engine(SystemClock::Get());
    sql::Session session(&engine);
    session.set_sharing_enabled(true);
    if (!session.Execute("create basket s (id int, k int, payload int)").ok()) {
      state.SkipWithError("create basket failed");
      return;
    }
    bool ok = true;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i + 1 < n && ok; ++i) ok = add(session, i);
    const uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const auto t1 = std::chrono::steady_clock::now();
    ok = ok && add(session, n - 1);
    const auto t2 = std::chrono::steady_clock::now();
    allocs += g_allocs.load(std::memory_order_relaxed) - a0;
    state.SetIterationTime(std::chrono::duration<double>(t2 - t1).count());
    all_ms += std::chrono::duration<double, std::milli>(t2 - t0).count();
    if (!ok) {
      state.SkipWithError("register failed");
      return;
    }
  }
  state.counters["allocs_per_registration"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.counters["all_registrations_ms"] =
      benchmark::Counter(all_ms, benchmark::Counter::kAvgIterations);
}

// n = 32 is perfbench's query set (its last group-by), n = 1024 Fig 5b's
// disjoint range queries.
void BM_RegisterNth(benchmark::State& state) {
  RegisterNth(state, [n = state.range(0)](sql::Session& session, int i) {
    return n == 32 ? RegisterSetQuery(session, i, nullptr)
                   : RegisterRangeQuery(session, i);
  });
}
// Stateful leaves: each registration prepares its leaf statement once.
void BM_RegisterNthStateful(benchmark::State& state) {
  RegisterNth(state, RegisterTopQuery);
}
// Each iteration registers n - 1 queries untimed, so the iteration count
// is fixed rather than grown to fill the harness's minimum time.
BENCHMARK(BM_RegisterNthStateful)
    ->Arg(32)
    ->Iterations(200)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RegisterNth)
    ->Arg(32)
    ->Iterations(200)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RegisterNth)
    ->Arg(1024)
    ->Iterations(3)
    ->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// The fused root of perfbench's `sql_small_batch` net: the query set
// above, fed one delivery of range(0) rows per iteration. The timed
// region is one cooperative scheduler round, which fires the root: its
// walk and every query's leaf, all of which it runs inline. Anything left
// to fire (nothing, while every leaf is inlined) drains outside the timed
// region. At 131072 rows it is `sql_bulk`'s delivery: the root gathers
// megabytes of survivors and releases them before the next firing.
void BM_FusedRootFire(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  core::Engine engine(SystemClock::Get());
  sql::Session session(&engine);
  session.set_sharing_enabled(true);
  if (!session.Execute("create basket s (id int, k int, payload int)").ok()) {
    state.SkipWithError("create basket failed");
    return;
  }
  uint64_t rows_out = 0;
  auto sink = [&rows_out](const Table& t) -> Status {
    rows_out += t.num_rows();
    return Status::OK();
  };
  if (!RegisterQuerySet(session, sink)) {
    state.SkipWithError("register failed");
    return;
  }
  auto source = engine.GetBasket("s");
  if (!source.ok()) {
    state.SkipWithError("no source basket");
    return;
  }
  // A pool of distinct deliveries, replayed in order (as few as perfbench
  // replays for bulk deliveries, so the pool stays a few megabytes).
  const size_t pool_size = n >= 4096 ? 8 : 256;
  Random rng(7);
  const Schema user({{"id", DataType::kInt64},
                     {"k", DataType::kInt64},
                     {"payload", DataType::kInt64}});
  std::vector<Table> pool;
  for (size_t d = 0; d < pool_size; ++d) {
    Table t(user);
    for (size_t i = 0; i < n; ++i) {
      t.column(0).AppendInt(static_cast<int64_t>(d * n + i));
      t.column(1).AppendInt(static_cast<int64_t>(rng.Uniform(1024)));
      t.column(2).AppendInt(static_cast<int64_t>(rng.Uniform(10'000)));
    }
    pool.push_back(std::move(t));
  }
  core::Scheduler& scheduler = engine.scheduler();
  FiringCost cost;
  size_t d = 0;
  for (auto _ : state) {
    auto appended = (*source)->Append(pool[d++ % pool_size], 0);
    benchmark::DoNotOptimize(appended);
    Result<bool> round = false;
    TimedFiring(state, &cost, [&] { round = scheduler.RunOnce(); });
    auto drained = scheduler.RunUntilQuiescent();
    if (!round.ok() || !drained.ok()) {
      state.SkipWithError("firing failed");
      return;
    }
  }
  benchmark::DoNotOptimize(rows_out);
  state.SetItemsProcessed(state.iterations() * state.range(0));
  ReportCost(state, cost);
}
BENCHMARK(BM_FusedRootFire)->Arg(8)->Arg(131'072)->UseManualTime();

void BM_CodecEncodeDecode(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Table batch = MakeTuples(n);
  net::Codec codec(StreamSchema());
  for (auto _ : state) {
    auto text = codec.EncodeTable(batch);
    benchmark::DoNotOptimize(text);
    Table decoded(StreamSchema());
    size_t start = 0;
    const std::string& payload = *text;
    while (start < payload.size()) {
      size_t end = payload.find('\n', start);
      if (end == std::string::npos) break;
      auto st = codec.DecodeInto(payload.substr(start, end - start), &decoded);
      benchmark::DoNotOptimize(st);
      start = end + 1;
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CodecEncodeDecode)->Arg(1'000)->Arg(10'000);

}  // namespace
}  // namespace datacell

BENCHMARK_MAIN();
