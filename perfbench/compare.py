#!/usr/bin/env python3
"""Compare benchmark result files of two commits.

    python3 perfbench/compare.py --before OUT1.json ... --after OUT2.json ...

Each file is a ``BENCH_*.json`` written by run.py.  The comparison is
refused when the files disagree on the kernel backend, the Python version,
the host-speed probe (whose time scales every reference-time figure), the
workload, the run length or the trace mode: such a pair measures the
environment or the yardstick, not the change.  For every metric it prints
each side's median with its quartiles and the change of the medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

MUST_MATCH = ("kernels_backend", "python", "probe", "workload", "seconds",
              "trace")


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    opts = parser.parse_args()
    sides = {}
    for side in ("before", "after"):
        sides[side] = []
        for path in getattr(opts, side):
            with open(path, encoding="utf-8") as fh:
                sides[side].append(json.load(fh))
    every = sides["before"] + sides["after"]
    for key in MUST_MATCH:
        seen = {str(r["provenance"][key]) for r in every}
        if len(seen) > 1:
            print(f"refused: files differ in {key}: {sorted(seen)}",
                  file=sys.stderr)
            return 2
    if not all(r["correct"] for r in every):
        print("refused: some run was not correct", file=sys.stderr)
        return 2
    names = list(sides["before"][0]["metrics"])
    print(f"{'metric':40s} {'before median [q1, q3]':>32s} "
          f"{'after median [q1, q3]':>32s} {'change':>8s}")
    for name in names:
        row = {}
        for side, results in sides.items():
            row[side] = _quartiles([r["metrics"][name]["value"]
                                    for r in results])
        before, after = row["before"][1], row["after"][1]
        change = (after - before) / before if before else float("nan")
        fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
        print(f"{name:40s} {fmt.format(*row['before']):>32s} "
              f"{fmt.format(*row['after']):>32s} {change:+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
