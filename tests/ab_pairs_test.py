#!/usr/bin/env python3
"""Checks tools/ab_pairs.py's per-metric verdict (`summarize`).

Run: python3 tests/ab_pairs_test.py (exit 0 when every case holds).
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent /
                       "tools"))
import ab_pairs  # noqa: E402


def verdict(base, change, better="lower", bound=0.25):
    return ab_pairs.summarize("m", better, bound, base, change)["verdict"]


CASES = [
    # A tight base and a change well below it: a clear gain.
    ("clear gain", verdict([10, 10.2, 9.9, 10.1, 10], [5, 5.1, 4.9, 5, 5.2]),
     "better"),
    # A tight base and a change well above it: a loss beyond the bound
    # that the base's spread cannot explain.
    ("clear loss", verdict([10, 10.2, 9.9, 10.1, 10],
                           [15, 15.1, 14.9, 15, 15.2]), "WORSE beyond bound"),
    # The base alone spreads wider than the bound and the change's median
    # sits inside that spread: the runs cannot resolve the loss.
    ("loss inside the IQR", verdict([5, 14, 7, 16, 6, 15, 8, 13],
                                    [13, 15, 14, 17, 12, 16, 13, 15]),
     "unresolved"),
    # Higher-is-better metric, same values on both sides.
    ("equal", verdict([3, 4, 5], [3, 4, 5], better="higher"), "equal"),
]


def main():
    failed = 0
    for name, got, want in CASES:
        ok = got == want
        failed += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got!r}"
              + ("" if ok else f" (want {want!r})"))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
