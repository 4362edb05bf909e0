#!/usr/bin/env python3
"""Fails when a firing bench allocates more than its ceiling.

Usage:

    bench_micro_ops --benchmark_filter=... --benchmark_out=micro.json \
        --benchmark_out_format=json
    python3 tools/check_allocs.py micro.json

Reads Google Benchmark's JSON report and checks the `allocs_per_firing`
counter of each benchmark named in CEILINGS. The counts are heap
allocations per firing, averaged over the iterations; they do not depend
on the host's speed, only on the iteration count through the first
firing's warm-up, which the ceilings leave room for. A benchmark that is
missing from the report, or that reported an error, fails too.
"""

import json
import sys

# allocs_per_firing ceilings: the figures the operator-owned state and the
# selection-passing walk reach (22.7 and 4.0), rounded up with room for
# the warm-up firing.
CEILINGS = {
    "BM_FusedRootFire/8/manual_time": 24,
    "BM_LeafFireGroupBy/8/manual_time": 5,
}


def check(report):
    """Returns one line per violation; empty when every ceiling holds."""
    found = {b["name"]: b for b in report.get("benchmarks", [])}
    problems = []
    for name, ceiling in CEILINGS.items():
        bench = found.get(name)
        if bench is None:
            problems.append(f"{name}: missing from the report")
        elif bench.get("error_occurred"):
            problems.append(f"{name}: {bench.get('error_message', 'error')}")
        elif "allocs_per_firing" not in bench:
            problems.append(f"{name}: no allocs_per_firing counter")
        elif bench["allocs_per_firing"] > ceiling:
            problems.append(f"{name}: allocs_per_firing "
                            f"{bench['allocs_per_firing']:.2f} > {ceiling}")
        else:
            print(f"{name}: allocs_per_firing "
                  f"{bench['allocs_per_firing']:.2f} <= {ceiling}")
    return problems


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        problems = check(json.load(f))
    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
