"""Shared plumbing: locating the library in the checkout, the reference
digests, and the closed loop that runs and checks items."""

from __future__ import annotations

import gzip
import hashlib
import inspect
import sys
import time
import traceback
from collections import Counter
from itertools import product
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = HERE / "out"


# Host-speed probe: fixed pure-Python work, timed as the best of three
# repeats.  On a shared host the same work runs up to 1.6x slower in some
# minutes than in others, and the speed moves within a second too; dividing
# each item's latency by (probe time / PROBE_REF_S), with the probe time the
# mean of the probes right before and right after the item, removes most of
# that drift from the *_ref_* metrics.  The probe is frozen: it shares no
# code with the library or the oracles, so neither can rescale it, and
# probe_digest() (its source and constants) goes into every result file's
# provenance, where compare.py requires it to match.  PROBE_REF_S is the
# probe's median on the host the benchmark was tuned on (2-core x86_64,
# CPython 3.11), so reference figures read close to wall-clock figures
# there.
PROBE_REF_S = 0.328e-3
PROBE_EVERY_S = 0.1


def probe_work() -> int:
    """Completions of a small argument-incomplete framework, then the
    arguments of a small rule base and the rebuttals between them."""
    defeats = (("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "e"),
               ("f", "a"), ("b", "f"), ("d", "b"))
    fixed, uncertain = ("a", "b"), ("c", "d", "e", "f")
    members = set()
    for mask in range(1 << len(uncertain)):
        keep = set(fixed) | {x for i, x in enumerate(uncertain)
                             if mask >> i & 1}
        members.add((tuple(sorted(keep)),
                     tuple(sorted((s, t) for s, t in defeats
                                  if s in keep and t in keep))))
    rules = ((frozenset(), "p", "d"), (frozenset({"p"}), "q", "d"),
             (frozenset({"q"}), "~r", "s"), (frozenset({"s"}), "r", "d"),
             (frozenset({"p", "s"}), "~q", "d"), (frozenset(), "~s", "d"))
    known = {phi: (phi, frozenset()) for phi in ("s", "p")}
    changed = True
    while changed:
        changed = False
        by_conc: dict = {}
        for text, (conc, _) in known.items():
            by_conc.setdefault(conc, []).append(text)
        for body, head, kind in rules:
            pools = [by_conc.get(phi, []) for phi in sorted(body)]
            if not all(pools):
                continue
            for combo in product(*pools):
                text = "[" + ";".join(sorted(combo)) + "]=" + kind + ">" + head
                if text not in known:
                    defeasible = {text} if kind == "d" else set()
                    known[text] = (head, frozenset().union(
                        defeasible, *(known[sub][1] for sub in combo)))
                    changed = True
    negation = {c: c[1:] if c.startswith("~") else "~" + c
                for c, _ in known.values()}
    edges = {(a, b) for a, (conc, _) in known.items()
             for b, (_, loci) in known.items()
             if any(known[locus][0] == negation[conc] for locus in loci)}
    return len(members) + len(edges)


def host_factor() -> float:
    """How much slower than the reference this host runs right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        probe_work()
        best = min(best, time.perf_counter() - start)
    return best / PROBE_REF_S


def probe_digest() -> str:
    """Identifies the probe, and so the scale of every reference time."""
    text = inspect.getsource(probe_work) + inspect.getsource(host_factor) \
        + repr((PROBE_REF_S, PROBE_EVERY_S))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class SetupError(Exception):
    """The checkout cannot be benchmarked (no library, no reference)."""


def load_uarg():
    """Import uarg from this checkout's src/ and nowhere else."""
    if not (SRC / "uarg" / "__init__.py").is_file():
        raise SetupError(f"no uarg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import uarg

    if Path(uarg.__file__).resolve().parent != SRC / "uarg":
        raise SetupError(f"imported uarg from {uarg.__file__}, not {SRC}")
    from uarg import kernels

    return uarg, kernels.backend_name()


def reference_path(name: str) -> Path:
    return REFERENCE_DIR / f"{name}.txt.gz"


class Reference:
    """The stored digests, one fixed-width line per catalogue index, kept
    as one bytes object so that loading them costs little time or memory."""

    def __init__(self, text: bytes):
        self.text = text
        self.width = text.index(b"\n") + 1

    def __len__(self) -> int:
        return len(self.text) // self.width

    def __getitem__(self, index: int) -> str:
        start = index * self.width
        return self.text[start:start + self.width - 1].decode("ascii")


def load_reference(workload: workloads.Workload) -> Reference:
    path = reference_path(workload.name)
    if not path.is_file():
        raise SetupError(f"missing reference digests {path}")
    digests = Reference(gzip.decompress(path.read_bytes()))
    if len(digests) != workload.size:
        raise SetupError(f"{path} holds {len(digests)} digests, the "
                         f"catalogue has {workload.size} inputs")
    return digests


def run_items(workload, uarg, indices, reference, deadline=None,
              tracer=None, probe=False):
    """Closed loop: build an input, time the item, then check it before the
    next one starts.  Input building and checking stay outside the timed
    region (and outside the tracer's spans).  An item fails if it raises,
    if its certificate does not hold, or if its digest differs from the
    reference.  The deadline is only checked between whole cycles through
    the strata, so every run sees the same mix of kinds and sizes.  With
    ``probe`` a probe runs before any item that starts PROBE_EVERY_S or
    more after the last one, and once after the last item; each item's
    host factor is the mean of the last probe before it and the first
    probe after it."""
    clock = time.perf_counter
    latencies: list[float] = []
    probes: list[tuple[int, float]] = []  # (index of the next item, factor)
    probed_at = -PROBE_EVERY_S
    digests: list[str] = []
    kinds: Counter = Counter()
    failures: list[str] = []
    cycle = len(workload.strata)
    for position, index in enumerate(indices):
        if deadline is not None and position % cycle == 0 \
                and clock() >= deadline:
            break
        if tracer is not None:
            tracer.active = False
        item = workload.item(uarg, index)
        kind = workload.kind(index)
        if tracer is not None:
            tracer.item, tracer.active = index, True
        if probe and clock() - probed_at >= PROBE_EVERY_S:
            probes.append((len(latencies), host_factor()))
            probed_at = clock()
        start = clock()
        try:
            certified, output = workload.run(uarg, item)
            raised = None
        except Exception:  # an item that raises is a failed item
            raised = traceback.format_exc(limit=3)
        latencies.append(clock() - start)
        if tracer is not None:
            tracer.active = False
        kinds[kind] += 1
        if raised is not None:
            digests.append("raised")
            failures.append(f"{index} {kind}: raised\n{raised}")
            continue
        got = workloads.digest(workload.summary(item, output))
        digests.append(got)
        if not certified:
            failures.append(f"{index} {kind}: certificate does not hold")
        elif got != reference[index]:
            failures.append(f"{index} {kind}: digest {got} differs from "
                            f"reference {reference[index]}")
    factors = []
    if probe and latencies:
        probes.append((len(latencies), host_factor()))
        before = 0
        for i in range(len(latencies)):
            while probes[before + 1][0] <= i:
                before += 1
            factors.append((probes[before][1] + probes[before + 1][1]) / 2)
    return {"latencies": latencies, "factors": factors, "digests": digests,
            "kinds": kinds, "failures": failures}
