// Multi-query sharing ablation (DESIGN.md §11): the same standing SQL
// query set is registered through the Session twice — once with the
// optimizer's common-prefix factoring ON (trie of conjunct fingerprints,
// each common prefix evaluated once by the fused trie walk) and once with
// factoring OFF (the shared net still replicates the stream to every
// per-query leaf but evaluates nothing upstream: every query re-runs its
// whole predicate).
//
// Queries share a selective prefix (payload < 1000, ~10%) plus a private
// one-percent residual range, so factoring should win and the gap should
// widen with the query count. Reported per count: aggregate throughput
// (input tuples x standing queries / wall seconds) and the peak resident
// rows across the optimizer's leaf baskets and the source basket.
//
// Emits BENCH_ablation_sharing.json. DATACELL_QUICK=1 shrinks the run.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sql/session.h"
#include "util/clock.h"
#include "util/random.h"

namespace datacell {
namespace {

struct CaseResult {
  double elapsed_s = 0;
  double aggregate_tps = 0;
  uint64_t peak_rows = 0;
  size_t rows_emitted = 0;
};

Table MakeTuples(size_t n) {
  Random rng(7);
  Table t(Schema({{"tag", DataType::kInt64}, {"payload", DataType::kInt64}}));
  for (size_t i = 0; i < n; ++i) {
    t.column(0).AppendInt(static_cast<int64_t>(i));
    t.column(1).AppendInt(static_cast<int64_t>(rng.Uniform(10'000)));
  }
  return t;
}

// Shared prefix payload < 1000 plus a private one-percent residual range.
std::string QuerySql(int i) {
  Random rng(13 + i);
  const int64_t lo = static_cast<int64_t>(rng.Uniform(990));
  return "select * from [select * from s where payload < 1000 and payload >= " +
         std::to_string(lo) + " and payload < " + std::to_string(lo + 10) +
         "]";
}

Result<CaseResult> RunCase(bool factoring, int queries, size_t tuples,
                           size_t chunk) {
  SimulatedClock clock(0);
  core::Engine engine(&clock);
  sql::Session session(&engine);
  session.set_sharing_enabled(true);
  session.optimizer().set_factoring_enabled(factoring);
  ASSIGN_OR_RETURN(Table created,
                   session.Execute("create basket s (tag int, payload int)"));
  (void)created;

  size_t emitted = 0;
  for (int i = 0; i < queries; ++i) {
    auto f = session.RegisterContinuousSelect(
        "q" + std::to_string(i), QuerySql(i),
        [&emitted](const Table& t) -> Status {
          emitted += t.num_rows();
          return Status::OK();
        });
    RETURN_NOT_OK(f.status());
  }

  ASSIGN_OR_RETURN(core::BasketPtr source, engine.GetBasket("s"));
  const Table feed = MakeTuples(tuples);

  SystemClock* wall = SystemClock::Get();
  const Micros t0 = wall->Now();
  for (size_t off = 0; off < tuples; off += chunk) {
    const size_t n = std::min(chunk, tuples - off);
    SelVector sel(n);
    for (size_t i = 0; i < n; ++i) sel[i] = off + i;
    Table batch = feed.Take(sel);
    ASSIGN_OR_RETURN(size_t appended, source->Append(batch, clock.Now()));
    (void)appended;
    ASSIGN_OR_RETURN(size_t rounds, engine.scheduler().RunUntilQuiescent());
    (void)rounds;
    clock.Advance(1000);
  }
  const Micros t1 = wall->Now();

  CaseResult r;
  r.elapsed_s = static_cast<double>(t1 - t0) / kMicrosPerSecond;
  r.aggregate_tps =
      r.elapsed_s > 0
          ? static_cast<double>(tuples) * queries / r.elapsed_s
          : 0;
  r.peak_rows = std::max(session.optimizer().PeakResidentRows(),
                         source->stats().peak_rows);
  r.rows_emitted = emitted;
  return r;
}

Status Run() {
  const bool quick = std::getenv("DATACELL_QUICK") != nullptr;
  const size_t tuples = quick ? 10'000 : 50'000;
  const size_t chunk = 4'096;
  const std::vector<int> counts =
      quick ? std::vector<int>{4, 16} : std::vector<int>{16, 64, 128};

  std::printf("--- multi-query sharing ablation (%zu tuples/case) ---\n",
              tuples);
  std::printf("%8s %16s %16s %8s %14s %14s\n", "queries", "factored(tps)",
              "unfactored(tps)", "speedup", "peak(fact)", "peak(unfact)");

  struct RowOut {
    int queries;
    CaseResult on, off;
  };
  std::vector<RowOut> rows;
  for (int q : counts) {
    ASSIGN_OR_RETURN(CaseResult on, RunCase(true, q, tuples, chunk));
    ASSIGN_OR_RETURN(CaseResult off, RunCase(false, q, tuples, chunk));
    if (on.rows_emitted != off.rows_emitted) {
      return Status::Internal(
          "ablation divergence at " + std::to_string(q) + " queries: " +
          std::to_string(on.rows_emitted) + " vs " +
          std::to_string(off.rows_emitted) + " rows emitted");
    }
    std::printf("%8d %16.0f %16.0f %7.1fx %14llu %14llu\n", q,
                on.aggregate_tps, off.aggregate_tps,
                off.aggregate_tps > 0 ? on.aggregate_tps / off.aggregate_tps
                                      : 0.0,
                static_cast<unsigned long long>(on.peak_rows),
                static_cast<unsigned long long>(off.peak_rows));
    rows.push_back({q, on, off});
  }

  const RowOut& last = rows.back();
  const double speedup_at_max =
      last.off.aggregate_tps > 0
          ? last.on.aggregate_tps / last.off.aggregate_tps
          : 0.0;
  const bool peak_ok = last.on.peak_rows <= last.off.peak_rows;

  FILE* out = std::fopen("BENCH_ablation_sharing.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_ablation_sharing.json\n");
    return Status::Internal("fopen failed");
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"ablation_sharing\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"tuples_per_case\": %zu,\n", tuples);
  std::fprintf(out, "  \"chunk_rows\": %zu,\n", chunk);
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const RowOut& r = rows[i];
    std::fprintf(
        out,
        "    {\"queries\": %d, \"sharing_tps\": %.0f, "
        "\"nosharing_tps\": %.0f, \"speedup\": %.2f, "
        "\"sharing_peak_rows\": %llu, \"nosharing_peak_rows\": %llu, "
        "\"rows_emitted\": %zu}%s\n",
        r.queries, r.on.aggregate_tps, r.off.aggregate_tps,
        r.off.aggregate_tps > 0 ? r.on.aggregate_tps / r.off.aggregate_tps
                                : 0.0,
        static_cast<unsigned long long>(r.on.peak_rows),
        static_cast<unsigned long long>(r.off.peak_rows), r.on.rows_emitted,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"max_queries\": %d,\n", last.queries);
  std::fprintf(out, "  \"speedup_at_max_queries\": %.2f,\n", speedup_at_max);
  std::fprintf(out, "  \"sharing_at_least_2x\": %s,\n",
               speedup_at_max >= 2.0 ? "true" : "false");
  std::fprintf(out, "  \"peak_rows_no_higher\": %s\n",
               peak_ok ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf(
      "wrote BENCH_ablation_sharing.json (speedup at %d queries: %.2fx, "
      "peak ok: %s)\n",
      last.queries, speedup_at_max, peak_ok ? "yes" : "no");
  return Status::OK();
}

}  // namespace
}  // namespace datacell

int main() {
  datacell::Status s = datacell::Run();
  if (!s.ok()) {
    std::fprintf(stderr, "bench failed: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}
