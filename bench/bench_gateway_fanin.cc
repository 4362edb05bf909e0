// Gateway fan-in: N concurrent sensor connections multiplexed by one
// single-shard ingress into a capacity-bounded basket.
//
// The consumer drains the basket at a bounded rate, so the sensors
// collectively outpace it and the credit valve must engage: the gateway
// stops reading the sockets (TCP push-back to the sensors) instead of
// dropping, and the basket's resident rows never exceed the configured
// bound. Acceptance: >= 32 concurrent sensors, peak resident rows <=
// capacity, zero tuples dropped end to end.
//
// Emits BENCH_gateway_fanin.json.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/basket.h"
#include "core/receptor.h"
#include "net/sensor.h"
#include "net/shard.h"
#include "obs/metrics.h"
#include "util/clock.h"

namespace datacell {
namespace {

bool Quick() { return std::getenv("DATACELL_QUICK") != nullptr; }

struct Config {
  size_t sensors = 32;
  uint64_t tuples_per_sensor = 20'000;
  size_t capacity = 8'192;
  size_t low_watermark = 4'096;
  size_t max_batch_rows = 512;
  // Consumer drain rate cap: one chunk per tick keeps the consumer slower
  // than the fan-in so the valve has to do real work.
  size_t drain_chunk = 1'024;
  Micros drain_tick = 1'000;  // 1 ms
};

struct RunResult {
  double elapsed_s = 0;
  uint64_t consumed = 0;
  uint64_t peak_resident = 0;
  uint64_t received = 0;
  uint64_t malformed_dropped = 0;
  uint64_t basket_dropped = 0;
  uint64_t engagements = 0;
  uint64_t connections = 0;
  /// End-to-end tuple latency: sensor stamps the `tag` column at send time;
  /// the consumer records now - tag when it takes the tuple out.
  obs::HistogramSnapshot latency;
};

RunResult Run(const Config& cfg) {
  SystemClock* clock = SystemClock::Get();
  const Schema stream = net::Sensor::StreamSchema();

  auto basket = std::make_shared<core::Basket>("in", stream);
  basket->SetCapacity(cfg.capacity, cfg.low_watermark);
  auto receptor = std::make_shared<core::Receptor>("r");
  receptor->AddOutput(basket);

  net::ShardedIngressOptions opts;
  opts.max_batch_rows = cfg.max_batch_rows;
  opts.max_connections = 256;
  net::ShardedIngress ingress({receptor}, net::Codec(stream), clock, opts);
  if (!ingress.Start().ok()) {
    std::fprintf(stderr, "ingress start failed\n");
    std::exit(1);
  }

  std::atomic<bool> stop_consumer{false};
  std::atomic<uint64_t> consumed{0};
  obs::Histogram latency;
  std::thread consumer([&] {
    SelVector sel;
    while (true) {
      const size_t n = std::min(basket->size(), cfg.drain_chunk);
      if (n > 0) {
        sel.resize(n);
        for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
        Result<Table> chunk = basket->TakeRows(sel);
        if (!chunk.ok()) break;
        const Micros now = clock->Now();
        const auto& tags = chunk->column(0).ints();
        for (int64_t tag : tags) latency.Record(now - tag);
        consumed.fetch_add(chunk->num_rows());
      } else if (stop_consumer.load()) {
        break;
      }
      clock->SleepFor(cfg.drain_tick);
    }
  });

  const Micros t0 = clock->Now();
  std::vector<std::thread> sensors;
  sensors.reserve(cfg.sensors);
  for (size_t s = 0; s < cfg.sensors; ++s) {
    sensors.emplace_back([&, s] {
      net::Sensor::Options opts;
      opts.num_tuples = cfg.tuples_per_sensor;
      opts.tuples_per_write = 64;
      opts.seed = s + 1;
      Status st = net::Sensor::Run("127.0.0.1", ingress.port(), opts, clock);
      if (!st.ok()) {
        std::fprintf(stderr, "sensor %zu: %s\n", s, st.ToString().c_str());
        std::exit(1);
      }
    });
  }
  for (auto& t : sensors) t.join();
  for (int i = 0; i < 60'000 && !ingress.finished(); ++i) clock->SleepFor(1000);
  stop_consumer.store(true);
  consumer.join();
  const Micros t1 = clock->Now();
  ingress.Stop();

  RunResult r;
  r.elapsed_s = static_cast<double>(t1 - t0) / 1e6;
  r.consumed = consumed.load();
  r.peak_resident = basket->stats().peak_rows;
  r.received = ingress.tuples_received();
  r.malformed_dropped = ingress.tuples_dropped();
  r.basket_dropped = basket->stats().dropped;
  r.engagements = ingress.backpressure_engagements();
  r.connections = ingress.connections_accepted();
  r.latency = latency.Snapshot();
  return r;
}

}  // namespace
}  // namespace datacell

int main() {
  datacell::Config cfg;
  if (datacell::Quick()) cfg.tuples_per_sensor = 2'000;
  const uint64_t total = cfg.sensors * cfg.tuples_per_sensor;

  std::printf("=== Gateway fan-in: %zu concurrent sensors -> one ingress -> "
              "bounded basket ===\n",
              cfg.sensors);
  std::printf("capacity %zu rows (low watermark %zu), %llu tuples total\n\n",
              cfg.capacity, cfg.low_watermark,
              static_cast<unsigned long long>(total));

  datacell::RunResult r = datacell::Run(cfg);

  const double tps = r.elapsed_s > 0
                         ? static_cast<double>(r.received) / r.elapsed_s
                         : 0;
  const bool bound_ok = r.peak_resident <= cfg.capacity;
  const bool lossless = r.received == total && r.consumed == total &&
                        r.malformed_dropped == 0 && r.basket_dropped == 0;
  std::printf("connections          %llu\n",
              static_cast<unsigned long long>(r.connections));
  std::printf("tuples received      %llu\n",
              static_cast<unsigned long long>(r.received));
  std::printf("tuples consumed      %llu\n",
              static_cast<unsigned long long>(r.consumed));
  std::printf("elapsed              %.3f s\n", r.elapsed_s);
  std::printf("throughput           %.0f tuples/s\n", tps);
  std::printf("peak resident rows   %llu (bound %zu) %s\n",
              static_cast<unsigned long long>(r.peak_resident), cfg.capacity,
              bound_ok ? "OK" : "VIOLATED");
  std::printf("backpressure engaged %llu times\n",
              static_cast<unsigned long long>(r.engagements));
  std::printf("dropped              %llu malformed, %llu basket -> %s\n",
              static_cast<unsigned long long>(r.malformed_dropped),
              static_cast<unsigned long long>(r.basket_dropped),
              lossless ? "lossless" : "LOSS");
  std::printf("e2e tuple latency    p50=%.0f us p95=%.0f us p99=%.0f us "
              "max=%lld us\n",
              r.latency.p50(), r.latency.p95(), r.latency.p99(),
              static_cast<long long>(r.latency.max));

  FILE* out = std::fopen("BENCH_gateway_fanin.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_gateway_fanin.json\n");
    return 1;
  }
  std::fprintf(out,
               "{\n"
               "  \"bench\": \"gateway_fanin\",\n"
               "  \"sensors\": %zu,\n"
               "  \"tuples_per_sensor\": %llu,\n"
               "  \"total_tuples\": %llu,\n"
               "  \"capacity\": %zu,\n"
               "  \"low_watermark\": %zu,\n"
               "  \"max_batch_rows\": %zu,\n"
               "  \"connections\": %llu,\n"
               "  \"elapsed_s\": %.3f,\n"
               "  \"throughput_tps\": %.0f,\n"
               "  \"peak_resident_rows\": %llu,\n"
               "  \"capacity_bound_respected\": %s,\n"
               "  \"backpressure_engagements\": %llu,\n"
               "  \"tuples_received\": %llu,\n"
               "  \"tuples_consumed\": %llu,\n"
               "  \"tuples_dropped_malformed\": %llu,\n"
               "  \"tuples_dropped_basket\": %llu,\n"
               "  \"latency_p50_us\": %.1f,\n"
               "  \"latency_p95_us\": %.1f,\n"
               "  \"latency_p99_us\": %.1f,\n"
               "  \"latency_max_us\": %lld,\n"
               "  \"latency_mean_us\": %.1f,\n"
               "  \"lossless\": %s\n"
               "}\n",
               cfg.sensors,
               static_cast<unsigned long long>(cfg.tuples_per_sensor),
               static_cast<unsigned long long>(total), cfg.capacity,
               cfg.low_watermark, cfg.max_batch_rows,
               static_cast<unsigned long long>(r.connections), r.elapsed_s,
               tps, static_cast<unsigned long long>(r.peak_resident),
               bound_ok ? "true" : "false",
               static_cast<unsigned long long>(r.engagements),
               static_cast<unsigned long long>(r.received),
               static_cast<unsigned long long>(r.consumed),
               static_cast<unsigned long long>(r.malformed_dropped),
               static_cast<unsigned long long>(r.basket_dropped),
               r.latency.p50(), r.latency.p95(), r.latency.p99(),
               static_cast<long long>(r.latency.max), r.latency.Mean(),
               lossless ? "true" : "false");
  std::fclose(out);
  std::printf("wrote BENCH_gateway_fanin.json\n");
  return (bound_ok && lossless) ? 0 : 1;
}
