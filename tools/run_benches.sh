#!/usr/bin/env sh
# Runs every bench binary from the build tree and collects the BENCH_*.json
# reports next to this repo's root. Usage:
#   tools/run_benches.sh [build-dir]     # default build dir: ./build
# Set DATACELL_QUICK=1 for the fast (CI-sized) parameterizations.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

if [ ! -d "$build_dir/bench" ]; then
  echo "no bench binaries in $build_dir — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

cd "$build_dir"
for b in bench/bench_*; do
  [ -x "$b" ] || continue
  echo "== $b =="
  "./$b"
  echo
done

found=0
for j in BENCH_*.json; do
  [ -e "$j" ] || continue
  cp -f "$j" "$repo_root/$j"
  echo "collected $j -> $repo_root/$j"
  found=1
done
[ "$found" = 1 ] || echo "note: no BENCH_*.json emitted" >&2

# The latency-reporting benches must carry percentile fields (DESIGN.md §10).
for j in BENCH_lroad.json BENCH_gateway_fanin.json; do
  [ -e "$j" ] || continue
  if ! grep -q '"latency_p99_us"' "$j"; then
    echo "ERROR: $j is missing latency_p99_us" >&2
    exit 1
  fi
done

# The sharing ablation must report both arms plus the acceptance summary
# fields (DESIGN.md §11).
if [ -e BENCH_ablation_sharing.json ]; then
  for field in '"sharing_tps"' '"nosharing_tps"' '"speedup_at_max_queries"' \
               '"sharing_at_least_2x"' '"peak_rows_no_higher"'; do
    if ! grep -q "$field" BENCH_ablation_sharing.json; then
      echo "ERROR: BENCH_ablation_sharing.json is missing $field" >&2
      exit 1
    fi
  done
fi

# The spill-backpressure report must carry all three arms and pass its
# acceptance bar: spilling sustains at least half the in-memory ingest
# rate (DESIGN.md §13).
if [ -e BENCH_spill_backpressure.json ]; then
  for field in '"inmemory_tps"' '"stall_tps"' '"spill_tps"' \
               '"spill_ratio"' '"spill_ge_half"'; do
    if ! grep -q "$field" BENCH_spill_backpressure.json; then
      echo "ERROR: BENCH_spill_backpressure.json is missing $field" >&2
      exit 1
    fi
  done
  if ! grep -q '"spill_ge_half": true' BENCH_spill_backpressure.json; then
    echo "ERROR: spill throughput fell below half of in-memory" >&2
    exit 1
  fi
fi

# The sharded-gateway report must carry the reactor-efficiency arm and
# the backpressure-at-scale acceptance fields (DESIGN.md §15).
if [ -e BENCH_gateway_sharded.json ]; then
  for field in '"shards"' '"sensors"' '"tps_per_shard"' \
               '"sharded_tuples_per_cpu_s"' \
               '"scaling_lossless"' '"bp_lossless"' \
               '"bp_backpressure_engagements"'; do
    if ! grep -q "$field" BENCH_gateway_sharded.json; then
      echo "ERROR: BENCH_gateway_sharded.json is missing $field" >&2
      exit 1
    fi
  done
  for field in '"scaling_lossless": true' '"bp_lossless": true'; do
    if ! grep -q "$field" BENCH_gateway_sharded.json; then
      echo "ERROR: BENCH_gateway_sharded.json failed: $field" >&2
      exit 1
    fi
  done
fi

# The vectorized-kernel report must carry all three arms plus the morsel
# latency percentiles and acceptance summary (DESIGN.md §12).
if [ -e BENCH_kernel_throughput.json ]; then
  for field in '"scalar_rows_per_s"' '"simd_rows_per_s"' \
               '"simd_morsel_rows_per_s"' '"simd_level"' \
               '"morsel_p50_us"' '"morsel_p95_us"' '"morsel_p99_us"' \
               '"best_simd_morsel_speedup"' '"simd_morsel_ge_4x"'; do
    if ! grep -q "$field" BENCH_kernel_throughput.json; then
      echo "ERROR: BENCH_kernel_throughput.json is missing $field" >&2
      exit 1
    fi
  done
fi
