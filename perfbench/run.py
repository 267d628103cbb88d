#!/usr/bin/env python3
"""Layered end-to-end benchmark of uarg.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nothing is installed or built.  Workloads, their inputs
and the digest each output must match live in ``workloads.py`` and
``reference/``; the reasons for each workload and the layer-to-metric
predictions are in ``rationale.json``.

``--trace 0`` measures the end-to-end metrics.  The timed phase is split
over ``SHARDS`` worker processes run one after another (never two at once).
Each worker is a closed loop with one caller: it builds an input, runs the
item, checks it, and only then starts the next one.  Every timed item is a
distinct catalogue input and runs once per process; warm-up uses other
inputs.  Splitting the phase over fresh processes averages the per-process
hash-layout effect instead of pinning ``PYTHONHASHSEED``; each worker's
start-up is also one sample of ``setup_s``.

The gated latency metrics are in reference time (``items_per_ref_s``,
``item_p50_ref_ms``, ``item_p90_ref_ms``): each item's wall-clock latency
divided by the host factor, the time of a fixed pure-Python probe over its
reference time (harness.PROBE_REF_S), averaged over the probes right
before and right after the item.  On a shared host the same work runs up
to 1.6x slower in some minutes than in others, which wall-clock figures
cannot separate from a change to the program.  ``setup_s`` (from spawning
a worker to its first timed item: interpreter, ``import uarg``, reference
digests, warm-up) is scaled the same way by a probe taken right after
set-up.  The wall-clock figures (``items_per_s``, ``item_p50_ms``,
``item_p90_ms``, ``setup_wall_s``) and the median host factor are printed
and stored next to them.

``--trace 1`` reports the per-layer metrics instead: a worker runs a fixed
list of inputs untraced, then another list of the same shape with every
public function of the layers wrapped (perfbench/spans.py), and writes its
spans to ``perfbench/out/``.  The same traced worker runs a second time
under a different ``PYTHONHASHSEED``; any difference in a counter or an
output digest is reported as a determinism bug and fails the run.  So does
a call into a layer that rationale.json says the workload bypasses, and a
zero in one of the counters it says the workload must reach.

Every run writes ``perfbench/out/BENCH_<workload>_seed<n>_trace<t>.json``
with its provenance, and prints its metrics with units and sample counts,
then one JSON line with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every item was certified and matched its
reference, 1 when some did not, 2 when the checkout cannot be benchmarked.

Seeds choose which catalogue inputs a run uses and in which order.  Seed
``HELD_OUT_SEED`` is kept out of tuning: confirm a claimed gain on it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import harness
import workloads
from spans import Tracer, unit_of

SHARDS = 5
HELD_OUT_SEED = 977
RUN_LIMIT_S = 170  # a whole run, workers included, ends within this
RATIONALE = harness.HERE / "rationale.json"

UNITS = {"items_per_ref_s": "items/ref_s", "item_p50_ref_ms": "ref_ms",
         "item_p90_ref_ms": "ref_ms", "setup_s": "s", "peak_rss_mb": "MiB",
         "items_per_s": "items/s", "item_p50_ms": "ms", "item_p90_ms": "ms",
         "setup_wall_s": "s", "host_factor": "ratio"}


def _latency_metrics(latencies: list[float], suffix: str) -> dict:
    n = len(latencies)
    return {
        f"items_per{suffix}s": (n / sum(latencies), n),
        f"item_p50{suffix}ms": (statistics.median(latencies) * 1e3, n),
        f"item_p90{suffix}ms": (statistics.quantiles(latencies, n=10)[8]
                                * 1e3, n),
    }


_STARTED = time.monotonic()


class WorkerError(Exception):
    pass


def _spawn(args: list[str], env=None) -> dict:
    """Run one worker to completion and return its JSON report; a worker
    still running at the run's time limit is killed."""
    cmd = [sys.executable, str(harness.HERE / "run.py")] + args
    remaining = _STARTED + RUN_LIMIT_S - time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=max(remaining, 1), check=False)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(args)} timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with "
                          f"{proc.returncode}")
    return json.loads(lines[-1])


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((harness.SRC / "uarg").glob("*.py*")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (harness.ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(harness.ROOT), "rev-parse",
                               "HEAD"], capture_output=True, text=True,
                              timeout=10, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def provenance(opts, backend: str, kinds: dict) -> dict:
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernels_backend": backend,
        "probe": harness.probe_digest(),
        "workload": opts.workload,
        "seed": opts.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": opts.seconds,
        "trace": opts.trace,
        "items_per_kind": dict(sorted(kinds.items())),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "shards": SHARDS,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
    }


# --- worker processes -----------------------------------------------------

def worker(opts) -> dict:
    """One shard of the timed phase."""
    uarg, backend = harness.load_uarg()
    workload = workloads.WORKLOADS[opts.workload]
    reference = harness.load_reference(workload)
    parts = SHARDS + 1  # the last part feeds every worker's warm-up
    warm = harness.run_items(
        workload, uarg,
        itertools.islice(workload.stream(opts.seed, SHARDS, parts),
                         workload.warmup), reference)
    ready = time.monotonic()
    setup_factor = harness.host_factor()
    deadline = time.perf_counter() + opts.seconds
    timed = harness.run_items(
        workload, uarg, workload.stream(opts.seed, opts.shard, parts),
        reference, deadline=deadline, probe=True)
    return {
        "ready": ready,
        "setup_factor": setup_factor,
        "backend": backend,
        "latencies": timed["latencies"],
        "factors": timed["factors"],
        "kinds": timed["kinds"],
        "attempted": len(warm["latencies"]) + len(timed["latencies"]),
        "failures": warm["failures"] + timed["failures"],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def tracer_worker(opts) -> dict:
    """Untraced list, then traced list of the same shape; spans to disk."""

    uarg, backend = harness.load_uarg()
    started = time.perf_counter()
    import uarg.cli  # noqa: F401  (timed: the CLI's own import cost)
    cli_import_s = time.perf_counter() - started
    workload = workloads.WORKLOADS[opts.workload]
    reference = harness.load_reference(workload)

    def part(index, count):
        return itertools.islice(workload.stream(opts.seed, index, 3), count)

    warm = harness.run_items(workload, uarg, part(2, workload.warmup),
                             reference)
    plain = harness.run_items(workload, uarg, part(1, workload.trace_items),
                              reference)
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_items(workload, uarg,
                                   part(0, workload.trace_items), reference,
                                   tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["cli.import_s"] = cli_import_s
    metrics["trace.overhead"] = sum(traced["latencies"]) / sum(
        plain["latencies"])
    harness.OUT_DIR.mkdir(exist_ok=True)
    tracer.write_spans(harness.OUT_DIR / (
        f"spans_{workload.name}_seed{opts.seed}_"
        f"hash{os.environ.get('PYTHONHASHSEED', 'random')}.csv"))
    runs = (warm, plain, traced)
    return {
        "backend": backend,
        "metrics": metrics,
        "layer_calls": tracer.layer_calls(),
        "digests": plain["digests"] + traced["digests"],
        "kinds": traced["kinds"],
        "traced": len(traced["latencies"]),
        "attempted": sum(len(r["latencies"]) for r in runs),
        "failures": [f for r in runs for f in r["failures"]],
    }


# --- main process ---------------------------------------------------------

def timed_run(opts) -> tuple[dict, dict, list, dict]:
    reports = []
    for shard in range(SHARDS):
        spawned = time.monotonic()
        report = _spawn(["--role", "worker", "--shard", str(shard),
                         "--workload", opts.workload, "--seed", str(opts.seed),
                         "--seconds", repr(opts.seconds / SHARDS)])
        report["setup_wall_s"] = report["ready"] - spawned
        report["setup_s"] = report["setup_wall_s"] / report["setup_factor"]
        reports.append(report)
    latencies = [x for r in reports for x in r["latencies"]]
    factors = [f for r in reports for f in r["factors"]]
    setups = [r["setup_s"] for r in reports]
    rss = [r["maxrss_kb"] for r in reports]
    values = _latency_metrics([x / f for x, f in zip(latencies, factors)],
                              "_ref_")
    values["setup_s"] = (statistics.median(setups), len(setups))
    values["peak_rss_mb"] = (statistics.median(rss) / 1024, len(rss))
    wall = _latency_metrics(latencies, "_")
    wall["setup_wall_s"] = (statistics.median(r["setup_wall_s"]
                                              for r in reports), len(reports))
    wall["host_factor"] = (statistics.median(factors), len(factors))
    metrics, wall_metrics = ({name: {"value": value, "unit": UNITS[name],
                                     "samples": samples}
                              for name, (value, samples) in table.items()}
                             for table in (values, wall))
    kinds: dict = {}
    for r in reports:
        for kind, count in r["kinds"].items():
            kinds[kind] = kinds.get(kind, 0) + count
    totals = {"attempted": sum(r["attempted"] for r in reports),
              "backend": reports[0]["backend"], "kinds": kinds,
              "backends": sorted({r["backend"] for r in reports})}
    return metrics, totals, [f for r in reports for f in r["failures"]], \
        {"wall_clock_metrics": wall_metrics}


def traced_run(opts) -> tuple[dict, dict, list, dict]:
    rationale = json.loads(RATIONALE.read_text(encoding="utf-8"))
    inherited = os.environ.get("PYTHONHASHSEED")
    other = "2" if inherited == "1" else "1"
    args = ["--role", "tracer", "--workload", opts.workload,
            "--seed", str(opts.seed)]
    first = _spawn(args)
    second = _spawn(args, env=dict(os.environ, PYTHONHASHSEED=other))
    failures = first["failures"] + second["failures"]
    for name, value in first["metrics"].items():
        if not name.endswith("_s") and name != "trace.overhead" \
                and value != second["metrics"][name]:
            failures.append(f"determinism: {name} is {value} under "
                            f"PYTHONHASHSEED={inherited or 'random'} and "
                            f"{second['metrics'][name]} under {other}")
    if first["digests"] != second["digests"]:
        failures.append("determinism: output digests differ between "
                        "PYTHONHASHSEED values")
    metrics = {name: {"value": value, "unit": unit_of(name),
                      "samples": first["traced"]}
               for name, value in first["metrics"].items()}
    declared = rationale["workloads"][opts.workload]
    violations = {layer: first["layer_calls"].get(layer, 0)
                  for layer in declared["bypasses"]
                  if first["layer_calls"].get(layer)}
    for layer, calls in violations.items():
        failures.append(f"bypass: {opts.workload} is declared to bypass "
                        f"{layer}, which recorded {calls} calls")
    for name in declared["must_reach"]:
        if not first["metrics"][name]:
            failures.append(f"coverage: {opts.workload} must reach "
                            f"{name}, which is 0")
    totals = {"attempted": first["attempted"] + second["attempted"],
              "backend": first["backend"], "kinds": first["kinds"],
              "backends": sorted({first["backend"], second["backend"]})}
    extra = {"layer_calls": first["layer_calls"],
             "bypass_violations": violations}
    return metrics, totals, failures, extra


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Layered end-to-end benchmark of uarg.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("main", "worker", "tracer"),
                        default="main", help=argparse.SUPPRESS)
    parser.add_argument("--shard", type=int, default=0,
                        help=argparse.SUPPRESS)
    opts = parser.parse_args()

    try:
        if opts.role == "worker":
            print(json.dumps(worker(opts)))
            return 0
        if opts.role == "tracer":
            print(json.dumps(tracer_worker(opts)))
            return 0
        harness.load_uarg()  # fail fast on a checkout without the library
        harness.load_reference(workloads.WORKLOADS[opts.workload])
        run = traced_run if opts.trace else timed_run
        metrics, totals, failures, extra = run(opts)
    except (harness.SetupError, WorkerError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = totals["attempted"]
    failed = len(failures)
    correct = failed == 0 and len(totals["backends"]) == 1
    result = {
        "provenance": provenance(opts, totals["backend"], totals["kinds"]),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "failures": failures[:20],
        **extra,
    }
    harness.OUT_DIR.mkdir(exist_ok=True)
    out = harness.OUT_DIR / (f"BENCH_{opts.workload}_seed{opts.seed}_"
                             f"trace{opts.trace}.json")
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")

    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{opts.workload} seed={opts.seed} backend={totals['backend']} "
          f"items={dict(sorted(totals['kinds'].items()))}")
    for name, metric in {**metrics,
                         **extra.get("wall_clock_metrics", {})}.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']} "
              f"(n={metric['samples']})")
    print(f"  {'failed_frac':40s} {failed / attempted:.6g} ratio "
          f"(n={attempted})")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
