#!/usr/bin/env python3
"""Alternating A/B pairs of perfbench runs: a base revision against a change.

Usage (from anywhere inside a DataCell checkout):

    python3 tools/ab_pairs.py [--base REV] [--change REV|WORKTREE]
        [--workloads a,b,...] [--pairs N] [--seed N] [--seconds S]
        [--workdir DIR] [--json FILE]

Each side is exported with `git archive` into its own directory under
--workdir, so each has its own perfbench build (.bench_build) whose CMake
home is that directory; a copied checkout would keep pointing at the tree
it was copied from. `--change WORKTREE` (the default) takes the working
tree as it is, uncommitted edits and staged new files included, through
`git stash create`; `--base` defaults to HEAD.

Both sides are built first (one short run each). Then, per pair and per
workload, the two sides run back to back through `perfbench/run.py`, the
order alternating between pairs so that drift on a shared host hits both
sides alike. Host noise swings single runs by far more than a typical
change, which is why a verdict is only ever drawn from pairs.

For every end-to-end metric of BENCHMARK.json the report gives the median
over pairs of change/base, how many pairs moved in the median's
direction, whether the two sides' medians differ by more than the spread
of the base's own runs (the distance between its quartiles), and whether
the median ratio lies outside the metric's bound in the worse direction.
When the base's spread is itself wider than the bound and the medians
differ by less than it, such a ratio is reported "unresolved": the runs
cannot tell that loss from noise, so it does not fail the comparison.
The script reads only BENCHMARK.json and perfbench/ of each side; it
changes nothing in the repository.
"""

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def resolve(rev):
    """A commit id for REV; WORKTREE is the working tree as a commit."""
    if rev == "WORKTREE":
        # Empty when the tree is clean: the working tree is HEAD.
        return git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", "--verify", rev + "^{commit}")


def export(commit, dest):
    """Writes the tree of `commit` to `dest` (replacing what is there)."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run(side, workload, seed, seconds):
    """One perfbench run; returns its result object or None on failure."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=side, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(f"ab_pairs: {side.name} {workload} failed "
                         f"({out.returncode}):\n{out.stderr[-2000:]}\n")
        return None
    return json.loads(lines[-1])


def value(result, metric):
    m = result["metrics"].get(metric) if result else None
    return None if m is None else m["value"]


def summarize(name, better, bound, base_vals, change_vals):
    """Median ratio, agreement and verdict for one metric of one workload."""
    ratios = [c / b for b, c in zip(base_vals, change_vals)
              if b is not None and c is not None and b > 0]
    if not ratios:
        return None
    med = statistics.median(ratios)
    base_ok = [v for v in base_vals if v is not None]
    change_ok = [v for v in change_vals if v is not None]
    base_med = statistics.median(base_ok)
    change_med = statistics.median(change_ok)
    q1, _, q3 = (statistics.quantiles(base_ok, n=4) if len(base_ok) > 1
                 else (base_med, base_med, base_med))
    if med >= 1:
        agree = sum(r >= 1 for r in ratios)
    else:
        agree = sum(r < 1 for r in ratios)
    worse = med > 1 + bound if better == "lower" else med < 1 - bound
    improved = med < 1 if better == "lower" else med > 1
    clears_iqr = abs(change_med - base_med) > q3 - q1
    noisy = base_med > 0 and (q3 - q1) / base_med > bound
    if worse and noisy and not clears_iqr:
        verdict = "unresolved"
    elif worse:
        verdict = "WORSE beyond bound"
    elif improved:
        verdict = "better"
    elif med == 1:
        verdict = "equal"
    else:
        verdict = "worse within bound"
    return {
        "metric": name, "better": better, "bound": bound,
        "base_median": base_med, "change_median": change_med,
        "base_iqr": q3 - q1,
        "clears_iqr": clears_iqr,
        "median_ratio": med, "agree": agree, "pairs": len(ratios),
        "ratios": ratios, "base": base_vals, "change": change_vals,
        "verdict": verdict,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", default="HEAD")
    p.add_argument("--change", default="WORKTREE")
    p.add_argument("--workloads", default=None,
                   help="comma-separated; default: all of BENCHMARK.json")
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=int, default=None,
                   help="default: BENCHMARK.json run_seconds")
    p.add_argument("--workdir", default=None,
                   help="where the two exports live; default: "
                        "<repo>/.ab_pairs")
    p.add_argument("--json", default=None, help="also write the report here")
    args = p.parse_args()

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec.get("run_seconds", 20)
    workdir = pathlib.Path(args.workdir or REPO / ".ab_pairs").resolve()
    sides = {"base": resolve(args.base), "change": resolve(args.change)}
    dirs = {}
    for label, commit in sides.items():
        dirs[label] = workdir / label
        export(commit, dirs[label])
        print(f"{label}: {commit[:12]} -> {dirs[label]}", flush=True)
    for label in sides:
        if run(dirs[label], workloads[0], args.seed, 1) is None:
            sys.exit(f"ab_pairs: {label} does not build or run")

    results = {w: {"base": [], "change": []} for w in workloads}
    for i in range(args.pairs):
        order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
        for w in workloads:
            for label in order:
                r = run(dirs[label], w, args.seed, seconds)
                results[w][label].append(r)
            got = {label: value(results[w][label][-1], "throughput_tps")
                   for label in order}
            print(f"pair {i + 1}/{args.pairs} {w}: " + ", ".join(
                f"{label} {got[label]:.4g}" if got[label] is not None else
                f"{label} failed" for label in order), flush=True)

    report = {"base": sides["base"], "change": sides["change"],
              "seed": args.seed, "seconds": seconds, "pairs": args.pairs,
              "workloads": {}}
    any_worse = False
    for w in workloads:
        rows = []
        failed = {label: sum(1 for r in results[w][label]
                             if r is None or r["failed"] > 0)
                  for label in ("base", "change")}
        for m in spec["end_to_end"]:
            row = summarize(
                m["name"], m["better"], m["bound"],
                [value(r, m["name"]) for r in results[w]["base"]],
                [value(r, m["name"]) for r in results[w]["change"]])
            if row is not None:
                rows.append(row)
                any_worse |= row["verdict"] == "WORSE beyond bound"
        report["workloads"][w] = {"metrics": rows, "failed_runs": failed}
        print(f"\n{w} (failed runs: base {failed['base']}, "
              f"change {failed['change']})")
        print(f"  {'metric':<16} {'base':>12} {'change':>12} {'ratio':>7} "
              f"{'agree':>6} {'>IQR':>5}  verdict")
        for row in rows:
            print(f"  {row['metric']:<16} {row['base_median']:>12.5g} "
                  f"{row['change_median']:>12.5g} {row['median_ratio']:>7.3f} "
                  f"{row['agree']:>3}/{row['pairs']:<2} "
                  f"{'yes' if row['clears_iqr'] else 'no':>5}  {row['verdict']}")
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    sys.exit(1 if any_worse else 0)


if __name__ == "__main__":
    main()
