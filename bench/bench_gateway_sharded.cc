// Sharded epoll gateway at 10k concurrent sensors (DESIGN.md §15).
//
// Two experiments:
//
//  1. Reactor efficiency — a paced tuple load (many mostly-idle
//     connections, small staggered bursts) through the 4-shard epoll
//     ShardedIngress. epoll_wait returns only the ready fds, so a round
//     costs O(ready), not O(connections). Reported as tuples ingested per
//     CPU second (getrusage(RUSAGE_SELF) around the run; the sensor fleet
//     lives in a separate process — see below — so parent CPU is gateway +
//     consumer only) plus wall-clock throughput; every tuple must arrive.
//     The poll(2) reactor this was once compared against is gone; its
//     last numbers are frozen in DESIGN.md §15 and EXPERIMENTS.md.
//
//  2. Backpressure at scale — 10k concurrent sensors blasting into
//     bounded per-shard baskets with a rate-capped consumer: the
//     per-shard credit valves must engage, resident rows stay under the
//     per-shard bound, and not one tuple is lost end to end (TCP
//     push-back, never drop).
//
// The sensor fleet runs in a forked child re-exec'ed as
// `/proc/self/exe --fleet ...`: the container caps each process at 20k
// fds, so the 10k server-side sockets (parent) and 10k client-side
// sockets (child) must not share a table; exec-after-fork also avoids
// forking a threaded parent into a running fleet.
//
// DATACELL_QUICK=1 shrinks the fleet (CI smoke); the gates are the same.
//
// Emits BENCH_gateway_sharded.json.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/basket.h"
#include "core/receptor.h"
#include "net/sensor.h"
#include "net/shard.h"
#include "net/socket.h"
#include "util/clock.h"

namespace datacell {
namespace {

bool Quick() { return std::getenv("DATACELL_QUICK") != nullptr; }

struct FleetConfig {
  uint16_t port = 0;
  size_t sensors = 10'000;
  uint64_t quota = 50;     // tuples per sensor (divisible by burst)
  uint64_t burst = 10;     // tuples per write
  size_t slice = 200;      // connections bursting per round
  useconds_t pacing = 400; // us between rounds (0 = blast)
};

// ---------------------------------------------------------------------------
// Fleet child: S blocking connections, staggered small bursts. Round
// structure: each round a rotating slice of `slice` connections writes one
// `burst`-tuple batch; a full pass over the fleet takes sensors/slice
// rounds; quota/burst passes complete the load. Backpressured connections
// simply block in write(2) — TCP push-back is the experiment.
// ---------------------------------------------------------------------------
int FleetMain(const FleetConfig& cfg) {
  ::signal(SIGPIPE, SIG_IGN);
  const std::string header =
      net::Codec(net::Sensor::StreamSchema()).EncodeSchemaHeader() + "\n";

  std::vector<net::TcpStream> conns;
  conns.reserve(cfg.sensors);
  for (size_t i = 0; i < cfg.sensors; ++i) {
    Result<net::TcpStream> conn = net::TcpStream::Connect("127.0.0.1", cfg.port);
    for (int attempt = 0; attempt < 50 && !conn.ok(); ++attempt) {
      ::usleep(20'000);  // accept queue momentarily full; back off
      conn = net::TcpStream::Connect("127.0.0.1", cfg.port);
    }
    if (!conn.ok()) {
      std::fprintf(stderr, "fleet: connect %zu: %s\n", i,
                   conn.status().ToString().c_str());
      return 2;
    }
    if (!conn->WriteAll(header).ok()) {
      std::fprintf(stderr, "fleet: header %zu failed\n", i);
      return 2;
    }
    conns.push_back(std::move(*conn));
  }

  uint64_t payload = 0;
  const uint64_t passes = cfg.quota / cfg.burst;
  for (uint64_t pass = 0; pass < passes; ++pass) {
    for (size_t start = 0; start < conns.size(); start += cfg.slice) {
      const size_t end = std::min(start + cfg.slice, conns.size());
      for (size_t i = start; i < end; ++i) {
        std::string batch;
        for (uint64_t b = 0; b < cfg.burst; ++b) {
          batch += std::to_string(static_cast<int64_t>(pass)) + "|" +
                   std::to_string(static_cast<int64_t>(payload++)) + "\n";
        }
        if (Status st = conns[i].WriteAll(batch); !st.ok()) {
          std::fprintf(stderr, "fleet: write %zu: %s\n", i,
                       st.ToString().c_str());
          return 2;
        }
      }
      if (cfg.pacing > 0) ::usleep(cfg.pacing);
    }
  }
  for (auto& c : conns) c.ShutdownWrite().IgnoreError();
  return 0;
}

pid_t SpawnFleet(const FleetConfig& cfg) {
  pid_t pid = ::fork();
  if (pid != 0) return pid;
  // Child: re-exec ourselves so the fleet gets a clean, unthreaded
  // process with its own fd table.
  const std::string port = std::to_string(cfg.port);
  const std::string sensors = std::to_string(cfg.sensors);
  const std::string quota = std::to_string(cfg.quota);
  const std::string burst = std::to_string(cfg.burst);
  const std::string slice = std::to_string(cfg.slice);
  const std::string pacing = std::to_string(cfg.pacing);
  ::execl("/proc/self/exe", "bench_gateway_sharded", "--fleet", port.c_str(),
          sensors.c_str(), quota.c_str(), burst.c_str(), slice.c_str(),
          pacing.c_str(), static_cast<char*>(nullptr));
  ::_exit(127);
}

double CpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

struct RunResult {
  double elapsed_s = 0;
  double cpu_s = 0;
  uint64_t received = 0;
  uint64_t consumed = 0;
  uint64_t dropped = 0;
  uint64_t basket_dropped = 0;
  uint64_t connections = 0;
  uint64_t engagements = 0;
  uint64_t peak_resident = 0;  // max over the run's baskets
  int fleet_exit = -1;
};

struct RunConfig {
  size_t shards = 4;
  FleetConfig fleet;
  size_t basket_capacity = 0;  // per basket; 0 = unbounded
  size_t drain_chunk = 0;      // 0 = unthrottled consumer
  Micros drain_tick = 500;
  size_t max_batch_rows = 512;
};

RunResult Run(const RunConfig& cfg) {
  SystemClock* clock = SystemClock::Get();
  const Schema stream = net::Sensor::StreamSchema();
  std::vector<core::BasketPtr> baskets;
  std::vector<core::ReceptorPtr> receptors;
  for (size_t k = 0; k < cfg.shards; ++k) {
    auto b = std::make_shared<core::Basket>("in.s" + std::to_string(k), stream);
    if (cfg.basket_capacity > 0) b->SetCapacity(cfg.basket_capacity);
    auto r = std::make_shared<core::Receptor>("r.s" + std::to_string(k));
    r->AddOutput(b);
    baskets.push_back(std::move(b));
    receptors.push_back(std::move(r));
  }

  net::ShardedIngressOptions opts;
  opts.max_batch_rows = cfg.max_batch_rows;
  opts.max_connections = 19'000;
  net::ShardedIngress ingress(receptors, net::Codec(stream), clock, opts);
  if (!ingress.Start().ok()) std::exit(1);

  std::atomic<bool> stop_consumer{false};
  std::atomic<uint64_t> consumed{0};
  std::thread consumer([&] {
    while (true) {
      bool idle = true;
      for (const auto& b : baskets) {
        if (cfg.drain_chunk > 0) {
          const size_t n = std::min(b->size(), cfg.drain_chunk);
          if (n == 0) continue;
          SelVector sel(n);
          for (size_t i = 0; i < n; ++i) sel[i] = static_cast<uint32_t>(i);
          Result<Table> chunk = b->TakeRows(sel);
          if (!chunk.ok()) return;
          consumed.fetch_add(chunk->num_rows());
          idle = false;
        } else {
          const size_t n = b->TakeAll().num_rows();
          consumed.fetch_add(n);
          if (n > 0) idle = false;
        }
      }
      if (idle && stop_consumer.load()) return;
      clock->SleepFor(cfg.drain_tick);
    }
  });

  const double cpu0 = CpuSeconds();
  const Micros t0 = clock->Now();
  FleetConfig fleet = cfg.fleet;
  fleet.port = ingress.port();
  pid_t pid = SpawnFleet(fleet);
  if (pid < 0) std::exit(1);

  const uint64_t total = fleet.sensors * fleet.quota;
  for (int waited = 0; waited < 600'000; waited += 5) {
    if (ingress.tuples_received() >= total && ingress.finished()) break;
    clock->SleepFor(5'000);
  }
  const Micros t1 = clock->Now();
  const double cpu1 = CpuSeconds();

  int status = 0;
  ::waitpid(pid, &status, 0);
  stop_consumer.store(true);
  consumer.join();

  RunResult r;
  r.elapsed_s = static_cast<double>(t1 - t0) / 1e6;
  r.cpu_s = cpu1 - cpu0;
  r.received = ingress.tuples_received();
  r.consumed = consumed.load();
  r.dropped = ingress.tuples_dropped();
  r.connections = ingress.connections_accepted();
  r.engagements = ingress.backpressure_engagements();
  for (const auto& b : baskets) {
    r.basket_dropped += b->stats().dropped;
    r.peak_resident = std::max(r.peak_resident,
                               static_cast<uint64_t>(b->stats().peak_rows));
  }
  r.fleet_exit = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  ingress.Stop();
  return r;
}

}  // namespace
}  // namespace datacell

int main(int argc, char** argv) {
  using datacell::FleetConfig;
  using datacell::RunConfig;
  using datacell::RunResult;

  if (argc >= 8 && std::strcmp(argv[1], "--fleet") == 0) {
    FleetConfig cfg;
    cfg.port = static_cast<uint16_t>(std::atoi(argv[2]));
    cfg.sensors = static_cast<size_t>(std::atol(argv[3]));
    cfg.quota = static_cast<uint64_t>(std::atoll(argv[4]));
    cfg.burst = static_cast<uint64_t>(std::atoll(argv[5]));
    cfg.slice = static_cast<size_t>(std::atol(argv[6]));
    cfg.pacing = static_cast<useconds_t>(std::atol(argv[7]));
    return datacell::FleetMain(cfg);
  }

  const bool quick = datacell::Quick();
  const size_t kShards = 4;

  // Experiment 1: paced mostly-idle fleet, unthrottled consumer.
  FleetConfig paced;
  paced.sensors = quick ? 400 : 10'000;
  paced.quota = quick ? 20 : 50;
  paced.burst = quick ? 5 : 10;
  paced.slice = quick ? 20 : 200;
  paced.pacing = 400;
  const uint64_t scaling_total = paced.sensors * paced.quota;

  std::printf("=== Sharded epoll gateway at scale ===\n");
  std::printf("fleet: %zu sensors x %llu tuples (bursts of %llu, %zu "
              "connections/round)%s\n\n",
              paced.sensors, static_cast<unsigned long long>(paced.quota),
              static_cast<unsigned long long>(paced.burst), paced.slice,
              quick ? " [quick]" : "");

  RunConfig sharded_cfg;
  sharded_cfg.shards = kShards;
  sharded_cfg.fleet = paced;
  std::printf("--- %zu epoll reactor shards ---\n", kShards);
  RunResult sh = datacell::Run(sharded_cfg);
  std::printf("received %llu/%llu, wall %.2f s, reactor+consumer CPU %.2f s, "
              "fleet exit %d\n",
              static_cast<unsigned long long>(sh.received),
              static_cast<unsigned long long>(scaling_total), sh.elapsed_s,
              sh.cpu_s, sh.fleet_exit);

  // Reactor efficiency: tuples ingested per CPU second, plus wall-clock
  // throughput per shard.
  const double per_cpu_sharded =
      sh.cpu_s > 0 ? static_cast<double>(sh.received) / sh.cpu_s : 0;
  const double wall_tps_sharded =
      sh.elapsed_s > 0 ? static_cast<double>(sh.received) / sh.elapsed_s : 0;
  const double tps_per_shard = wall_tps_sharded / static_cast<double>(kShards);

  std::printf("tuples/cpu-s: %.0f, wall %.0f tuples/s (%.0f per shard)\n\n",
              per_cpu_sharded, wall_tps_sharded, tps_per_shard);

  // Experiment 2: the same fleet size blasting into bounded per-shard
  // baskets with a rate-capped consumer — per-shard valves must engage and
  // nothing may be lost.
  FleetConfig blast;
  blast.sensors = paced.sensors;
  blast.quota = 20;
  blast.burst = 20;
  blast.slice = quick ? 50 : 500;
  blast.pacing = 0;
  const uint64_t bp_total = blast.sensors * blast.quota;

  RunConfig bp_cfg;
  bp_cfg.shards = kShards;
  bp_cfg.fleet = blast;
  // Per-shard bound (aggregate matches the unsharded configuration); the
  // quick fleet is 25x smaller, so the bound shrinks with it or the valves
  // would never be exercised.
  bp_cfg.basket_capacity = quick ? 128 : 2'048;
  bp_cfg.drain_chunk = quick ? 64 : 256;
  bp_cfg.drain_tick = 2'000;
  std::printf("--- backpressure at scale: %zu sensors x %llu tuples, "
              "bounded shards ---\n",
              blast.sensors, static_cast<unsigned long long>(blast.quota));
  RunResult bp = datacell::Run(bp_cfg);

  const bool scaling_lossless = sh.received == scaling_total &&
                                sh.dropped == 0 && sh.basket_dropped == 0 &&
                                sh.fleet_exit == 0;
  const bool bp_lossless = bp.received == bp_total &&
                           bp.consumed == bp_total && bp.dropped == 0 &&
                           bp.basket_dropped == 0 && bp.fleet_exit == 0;
  const bool bp_bounded = bp.peak_resident <= bp_cfg.basket_capacity;
  const bool bp_engaged = bp.engagements >= 1;

  std::printf("received %llu/%llu, consumed %llu, peak shard resident %llu "
              "(bound %zu) %s, valve engaged %llu times -> %s\n\n",
              static_cast<unsigned long long>(bp.received),
              static_cast<unsigned long long>(bp_total),
              static_cast<unsigned long long>(bp.consumed),
              static_cast<unsigned long long>(bp.peak_resident),
              bp_cfg.basket_capacity, bp_bounded ? "OK" : "VIOLATED",
              static_cast<unsigned long long>(bp.engagements),
              bp_lossless ? "lossless" : "LOSS");

  FILE* out = std::fopen("BENCH_gateway_sharded.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_gateway_sharded.json\n");
    return 1;
  }
  std::fprintf(
      out,
      "{\n"
      "  \"bench\": \"gateway_sharded\",\n"
      "  \"quick\": %s,\n"
      "  \"shards\": %zu,\n"
      "  \"sensors\": %zu,\n"
      "  \"tuples_per_sensor\": %llu,\n"
      "  \"total_tuples\": %llu,\n"
      "  \"sharded_elapsed_s\": %.3f,\n"
      "  \"sharded_cpu_s\": %.3f,\n"
      "  \"sharded_tuples_per_cpu_s\": %.0f,\n"
      "  \"wall_tps_sharded\": %.0f,\n"
      "  \"tps_per_shard\": %.0f,\n"
      "  \"scaling_lossless\": %s,\n"
      "  \"bp_sensors\": %zu,\n"
      "  \"bp_total_tuples\": %llu,\n"
      "  \"bp_capacity_per_shard\": %zu,\n"
      "  \"bp_peak_shard_resident\": %llu,\n"
      "  \"bp_capacity_bound_respected\": %s,\n"
      "  \"bp_backpressure_engagements\": %llu,\n"
      "  \"bp_lossless\": %s\n"
      "}\n",
      quick ? "true" : "false", kShards, paced.sensors,
      static_cast<unsigned long long>(paced.quota),
      static_cast<unsigned long long>(scaling_total), sh.elapsed_s, sh.cpu_s,
      per_cpu_sharded, wall_tps_sharded, tps_per_shard,
      scaling_lossless ? "true" : "false", blast.sensors,
      static_cast<unsigned long long>(bp_total), bp_cfg.basket_capacity,
      static_cast<unsigned long long>(bp.peak_resident),
      bp_bounded ? "true" : "false",
      static_cast<unsigned long long>(bp.engagements),
      bp_lossless ? "true" : "false");
  std::fclose(out);
  std::printf("wrote BENCH_gateway_sharded.json\n");

  return (scaling_lossless && bp_lossless && bp_bounded && bp_engaged) ? 0
                                                                       : 1;
}
