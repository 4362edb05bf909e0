#include "obs/tables.h"

#include <utility>
#include <vector>

#include "core/basket.h"
#include "core/engine.h"
#include "core/scheduler.h"
#include "net/shard.h"
#include "obs/metrics.h"
#include "obs/plans.h"
#include "obs/trace.h"
#include "storage/ingest_log.h"
#include "storage/pager.h"

namespace datacell::obs {

namespace {

Result<Table> MetricsTable() {
  Table t(Schema({{"name", DataType::kString},
                  {"kind", DataType::kString},
                  {"value", DataType::kDouble},
                  {"count", DataType::kInt64},
                  {"sum", DataType::kInt64},
                  {"p50_us", DataType::kDouble},
                  {"p95_us", DataType::kDouble},
                  {"p99_us", DataType::kDouble},
                  {"max_us", DataType::kInt64}}));
  for (const MetricSnapshot& m : MetricsRegistry::Global().Snapshot()) {
    RETURN_NOT_OK(t.AppendRow({Value(m.name), Value(MetricKindName(m.kind)),
                               Value(m.value),
                               Value(static_cast<int64_t>(m.count)),
                               Value(static_cast<int64_t>(m.sum)), Value(m.p50),
                               Value(m.p95), Value(m.p99), Value(m.max)}));
  }
  return t;
}

Result<Table> BasketsTable(core::Engine* engine) {
  Table t(Schema({{"name", DataType::kString},
                  {"rows", DataType::kInt64},
                  {"enabled", DataType::kBool},
                  {"capacity", DataType::kInt64},
                  {"low_watermark", DataType::kInt64},
                  {"appended", DataType::kInt64},
                  {"dropped", DataType::kInt64},
                  {"consumed", DataType::kInt64},
                  {"peak_rows", DataType::kInt64},
                  {"credit_stalls", DataType::kInt64}}));
  for (const std::string& name : engine->ListBaskets()) {
    ASSIGN_OR_RETURN(core::BasketPtr b, engine->GetBasket(name));
    const core::Basket::Stats s = b->stats();
    RETURN_NOT_OK(
        t.AppendRow({Value(b->name()), Value(static_cast<int64_t>(b->size())),
                     Value(b->enabled()),
                     Value(static_cast<int64_t>(b->capacity())),
                     Value(static_cast<int64_t>(b->low_watermark())),
                     Value(static_cast<int64_t>(s.appended)),
                     Value(static_cast<int64_t>(s.dropped)),
                     Value(static_cast<int64_t>(s.consumed)),
                     Value(static_cast<int64_t>(s.peak_rows)),
                     Value(static_cast<int64_t>(s.credit_stalls))}));
  }
  return t;
}

Result<Table> TransitionsTable(core::Engine* engine) {
  Table t(Schema({{"name", DataType::kString},
                  {"firings", DataType::kInt64},
                  {"rows_in", DataType::kInt64},
                  {"rows_out", DataType::kInt64},
                  {"mean_us", DataType::kDouble},
                  {"p50_us", DataType::kDouble},
                  {"p95_us", DataType::kDouble},
                  {"p99_us", DataType::kDouble},
                  {"max_us", DataType::kInt64},
                  {"total_us", DataType::kInt64},
                  {"morsels", DataType::kInt64},
                  {"morsel_p50_us", DataType::kDouble},
                  {"morsel_p99_us", DataType::kDouble}}));
  for (const core::Scheduler::TransitionStats& ts :
       engine->scheduler().TransitionStatsSnapshot()) {
    RETURN_NOT_OK(
        t.AppendRow({Value(ts.name), Value(static_cast<int64_t>(ts.firings)),
                     Value(static_cast<int64_t>(ts.rows_in)),
                     Value(static_cast<int64_t>(ts.rows_out)),
                     Value(ts.latency.Mean()), Value(ts.latency.p50()),
                     Value(ts.latency.p95()), Value(ts.latency.p99()),
                     Value(ts.latency.max),
                     Value(static_cast<int64_t>(ts.latency.sum)),
                     Value(static_cast<int64_t>(ts.morsels)),
                     Value(ts.morsel_latency.p50()),
                     Value(ts.morsel_latency.p99())}));
  }
  return t;
}

// The optimizer publishes plan rows (plain data) when a query's plan
// changes; the live figures are joined in here — a trie node's own
// counters, sharing count and estimate, else the transition's counters by
// name — so observed cardinalities sit next to the cost model's estimates.
Result<Table> PlansTable() {
  Table t(Schema({{"query", DataType::kString},
                  {"stage", DataType::kString},
                  {"kind", DataType::kString},
                  {"detail", DataType::kString},
                  {"fingerprint", DataType::kString},
                  {"shared_by", DataType::kInt64},
                  {"est_rows", DataType::kDouble},
                  {"rows_in", DataType::kInt64},
                  {"rows_out", DataType::kInt64}}));
  MetricsRegistry& reg = MetricsRegistry::Global();
  for (const PlanRow& r : PlansRegistry::Global().Snapshot()) {
    int64_t rows_in = 0;
    int64_t rows_out = 0;
    int64_t shared_by = r.shared_by;
    double est_rows = r.est_rows;
    if (r.counters != nullptr) {
      rows_in = static_cast<int64_t>(
          r.counters->rows_in.load(std::memory_order_relaxed));
      rows_out = static_cast<int64_t>(
          r.counters->rows_out.load(std::memory_order_relaxed));
      shared_by = r.counters->shared_by.load(std::memory_order_relaxed);
      est_rows = r.counters->est_rows.load(std::memory_order_relaxed);
    } else if (!r.stage.empty()) {
      const std::string prefix = "transition." + r.stage + ".";
      rows_in =
          static_cast<int64_t>(reg.GetCounter(prefix + "rows_in")->value());
      rows_out =
          static_cast<int64_t>(reg.GetCounter(prefix + "rows_out")->value());
    }
    if (r.fed_by != nullptr) {
      est_rows = r.fed_by->est_rows.load(std::memory_order_relaxed);
    }
    RETURN_NOT_OK(t.AppendRow({Value(r.query), Value(r.stage), Value(r.kind),
                               Value(r.detail), Value(r.fingerprint),
                               Value(shared_by), Value(est_rows),
                               Value(rows_in), Value(rows_out)}));
  }
  return t;
}

Result<Table> TraceTable() {
  Table t(Schema({{"seq", DataType::kInt64},
                  {"at", DataType::kTimestamp},
                  {"transition", DataType::kString},
                  {"trigger", DataType::kString},
                  {"rows_in", DataType::kInt64},
                  {"rows_out", DataType::kInt64},
                  {"duration_us", DataType::kInt64}}));
  for (const TraceEvent& e : TraceLog::Global().Snapshot()) {
    RETURN_NOT_OK(t.AppendRow(
        {Value(static_cast<int64_t>(e.seq)), Value(e.at), Value(e.transition),
         Value(e.trigger), Value(static_cast<int64_t>(e.rows_in)),
         Value(static_cast<int64_t>(e.rows_out)), Value(e.duration_us)}));
  }
  return t;
}

// One row per durability-tier entity. Numeric columns not applicable to a
// row's kind read as 0 (the table stays flat and filterable on `kind`).
Result<Table> StorageTable() {
  Table t(Schema({{"kind", DataType::kString},
                  {"name", DataType::kString},
                  {"records", DataType::kInt64},
                  {"bytes", DataType::kInt64},
                  {"fsyncs", DataType::kInt64},
                  {"last_seq", DataType::kInt64},
                  {"acked", DataType::kInt64},
                  {"pages_in_use", DataType::kInt64},
                  {"fetches", DataType::kInt64},
                  {"hits", DataType::kInt64},
                  {"misses", DataType::kInt64},
                  {"evictions", DataType::kInt64},
                  {"writebacks", DataType::kInt64}}));
  const auto i64 = [](uint64_t v) { return Value(static_cast<int64_t>(v)); };
  storage::StorageRegistry& reg = storage::StorageRegistry::Global();
  for (storage::IngestLog* log : reg.Logs()) {
    const storage::IngestLog::Stats s = log->stats();
    RETURN_NOT_OK(t.AppendRow({Value(std::string("log")), Value(log->path()),
                               i64(s.records), i64(s.bytes), i64(s.fsyncs),
                               i64(0), i64(0), i64(0), i64(0), i64(0), i64(0),
                               i64(0), i64(0)}));
    for (const storage::IngestLog::StreamInfo& si : log->Streams()) {
      RETURN_NOT_OK(t.AppendRow({Value(std::string("stream")), Value(si.name),
                                 i64(0), i64(0), i64(0), i64(si.last_seq),
                                 i64(si.acked), i64(0), i64(0), i64(0), i64(0),
                                 i64(0), i64(0)}));
    }
  }
  for (storage::BufferPool* pool : reg.Pools()) {
    const storage::BufferPool::Stats s = pool->stats();
    RETURN_NOT_OK(t.AppendRow(
        {Value(std::string("pool")), Value(pool->pager().path()), i64(0),
         i64(pool->pager().bytes_on_disk()), i64(0), i64(0), i64(0),
         i64(pool->pager().pages_in_use()), i64(s.fetches), i64(s.hits),
         i64(s.misses), i64(s.evictions), i64(s.writebacks)}));
  }
  return t;
}

// One row per reactor shard of every live sharded ingress (fed by
// net::ShardRegistry, same pattern as dc_storage's StorageRegistry).
// `port` distinguishes ingresses when several are up in one process.
Result<Table> ShardsTable() {
  Table t(Schema({{"port", DataType::kInt64},
                  {"shard", DataType::kInt64},
                  {"connections", DataType::kInt64},
                  {"active", DataType::kInt64},
                  {"tuples", DataType::kInt64},
                  {"dropped", DataType::kInt64},
                  {"credit_stalls", DataType::kInt64},
                  {"backpressure_engagements", DataType::kInt64},
                  {"backpressured", DataType::kBool}}));
  const auto i64 = [](uint64_t v) { return Value(static_cast<int64_t>(v)); };
  for (net::ShardedIngress* si : net::ShardRegistry::Global().Ingresses()) {
    for (size_t k = 0; k < si->num_shards(); ++k) {
      const net::ShardedIngress::ShardStats s = si->shard_stats(k);
      RETURN_NOT_OK(t.AppendRow(
          {i64(si->port()), i64(k), i64(s.connections), i64(s.active),
           i64(s.tuples), i64(s.dropped), i64(s.credit_stalls),
           i64(s.backpressure_engagements), Value(s.backpressured)}));
    }
  }
  return t;
}

}  // namespace

bool IsVirtualTable(const std::string& name) {
  return name == "dc_metrics" || name == "dc_baskets" ||
         name == "dc_transitions" || name == "dc_trace" ||
         name == "dc_plans" || name == "dc_storage" || name == "dc_shards";
}

Result<Table> VirtualTable(core::Engine* engine, const std::string& name) {
  if (name == "dc_metrics") return MetricsTable();
  if (name == "dc_baskets") return BasketsTable(engine);
  if (name == "dc_transitions") return TransitionsTable(engine);
  if (name == "dc_trace") return TraceTable();
  if (name == "dc_plans") return PlansTable();
  if (name == "dc_storage") return StorageTable();
  if (name == "dc_shards") return ShardsTable();
  return Status::NotFound("unknown virtual table '" + name + "'");
}

}  // namespace datacell::obs
