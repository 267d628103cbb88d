#!/usr/bin/env python3
"""Build or check the reference digests of a workload's input catalogue.

    python3 perfbench/reference.py build <workload>
    python3 perfbench/reference.py check <workload>

``build`` runs every catalogue input through the library, requires every
certificate to hold, recomputes every input of every K-th cycle through
the strata (K = ``ORACLE_EVERY[workload]``) with the independent oracles
(perfbench/oracles.py), so every kind and size is cross-checked, and
stops at the first disagreement, then writes
``reference/<workload>.txt.gz``: one digest per catalogue index.
``check`` repeats the oracle cross-check against the stored file.  The
reference pins the library's outputs as of the commit that built it; a
change that alters any output byte fails the benchmark until the
reference is rebuilt and the rebuild is justified.
"""

from __future__ import annotations

import argparse
import gzip
import sys
import time

import harness
import workloads

ORACLE_EVERY = {"encode_sweep": 50, "structured_wide": 20,
                "abstract_reasoning": 20, "equiv_search": 30}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("action", choices=("build", "check"))
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    opts = parser.parse_args()
    workload = workloads.WORKLOADS[opts.workload]
    every = ORACLE_EVERY[workload.name]
    strata = len(workload.strata)
    uarg, backend = harness.load_uarg()
    stored = None if opts.action == "build" else \
        harness.load_reference(workload)
    indices = range(workload.size) if opts.action == "build" else \
        [i for i in range(workload.size) if i // strata % every == 0]
    digests = []
    checked = 0
    started = time.perf_counter()
    for index in indices:
        item = workload.item(uarg, index)
        certified, output = workload.run(uarg, item)
        got = workloads.digest(workload.summary(item, output))
        if not certified:
            print(f"{index}: certificate does not hold", file=sys.stderr)
            return 1
        if index // strata % every == 0:
            expected = workloads.digest(workload.oracle(uarg, item, output))
            if expected != got or (stored and stored[index] != expected):
                print(f"{index} {workload.kind(index)}: library {got}, "
                      f"oracle {expected}", file=sys.stderr)
                return 1
            checked += 1
        digests.append(got)
        if len(digests) % 500 == 0:
            print(f"{workload.name}: {len(digests)} inputs, "
                  f"{time.perf_counter() - started:.0f}s", file=sys.stderr)
    if opts.action == "build":
        harness.REFERENCE_DIR.mkdir(exist_ok=True)
        harness.reference_path(workload.name).write_bytes(gzip.compress(
            "".join(d + "\n" for d in digests).encode("ascii"), mtime=0))
    print(f"{workload.name}: {len(digests)} inputs ({backend} kernels), "
          f"{checked} confirmed by the oracles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
