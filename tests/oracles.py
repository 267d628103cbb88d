"""Independent brute-force oracles.

Everything here is definition-literal and set-based, deliberately avoiding
the package's bitmask kernels and search machinery so the two routes stay
independent checks of each other.  The exceptions are kept slow paths:
``recheck_equivalent`` follows the search order of ``uarg.equivalent``, with
the tuple-valued occurrence signatures of ``tuple_signatures`` that the
library's integer codes must order and group the same way, so that it can
check the search counters too,
``enumerated_no_equivalent_arg_iaf`` calls ``uarg.equivalent``, and
``scanned_dependency_masks`` and ``fixpoint_horn_closed_masks`` take the
encoded dependencies of ``uarg.kernels.dependency_masks`` and
``uarg.incomplete._horn_closed_masks`` and return the same mask lists,
``dict_induced_completions`` takes the arguments of
``uarg.incomplete._induced_completions`` and ``minimized_by_completions``
calls ``uarg.completions_dep``.
"""

from itertools import chain, combinations, permutations

from uarg import (
    DEFAULT_LIMITS,
    AbstractAF,
    ArgIAF,
    CompletionSet,
    DepArgIAF,
    Witness,
    completions_arg_iaf,
    completions_dep,
    equivalent,
    satisfies,
)
from uarg.equivalence import EQUIVALENT, NOT_EQUIVALENT, EquivalenceResult
from uarg.errors import (
    SearchBoundExceededError,
    UncertaintyBoundExceededError,
)
from uarg.kernels import DEP_IMPLY, DEP_OR


def powerset(items):
    items = list(items)
    return chain.from_iterable(combinations(items, k)
                               for k in range(len(items) + 1))


def naive_conflict_free(af: AbstractAF, ext: frozenset) -> bool:
    return not any(s in ext and t in ext for s, t in af.defeats)


def naive_admissible(af: AbstractAF, ext: frozenset) -> bool:
    if not naive_conflict_free(af, ext):
        return False
    for s, t in af.defeats:
        if t in ext:
            if not any((z, s) in af.defeat_set for z in ext):
                return False
    return True


def naive_extensions(af: AbstractAF, sigma: str) -> set[frozenset]:
    """Definition-literal semantics: grounded as the subset-least complete
    extension, preferred as subset-maximal admissible sets."""
    subsets = [frozenset(e) for e in powerset(af.args)]
    admissible = {e for e in subsets if naive_admissible(af, e)}
    if sigma == "admissible":
        return admissible
    if sigma == "stable":
        out = set()
        for e in subsets:
            if not naive_conflict_free(af, e):
                continue
            attacked = {t for s, t in af.defeats if s in e}
            if set(af.args) - e <= attacked:
                out.add(e)
        return out
    complete = set()
    for e in admissible:
        attacked = {t for s, t in af.defeats if s in e}
        defended = {a for a in af.args
                    if all(s in attacked for s, t in af.defeats if t == a)}
        if defended <= e:
            complete.add(e)
    if sigma == "complete":
        return complete
    if sigma == "grounded":
        return {e for e in complete if all(e <= other for other in complete)}
    if sigma == "preferred":
        return {e for e in admissible
                if not any(e < other for other in admissible)}
    raise ValueError(sigma)


def naive_completions(fixed, uncertain, defeats) -> set[tuple]:
    """Completions as (frozenset args, frozenset defeats) pairs."""
    fixed = frozenset(fixed)
    out = set()
    for chosen in powerset(uncertain):
        args = fixed | set(chosen)
        out.add((frozenset(args),
                 frozenset((s, t) for s, t in defeats
                           if s in args and t in args)))
    return out


def naive_dep_completions(fixed, uncertain, defeats, deps) -> set[tuple]:
    fixed = frozenset(fixed)
    out = set()
    for chosen in powerset(uncertain):
        args = fixed | set(chosen)
        if all(satisfies(args, dep) for dep in deps):
            out.add((frozenset(args),
                     frozenset((s, t) for s, t in defeats
                               if s in args and t in args)))
    return out


def as_pairs(completion_set) -> set[tuple]:
    return {(af.arg_set, af.defeat_set) for af in completion_set}


def brute_force_equivalent(source, target) -> dict | None:
    """Try every bijection between the argument unions; return a witnessing
    mapping or None."""
    src = sorted(source.argument_union())
    tgt = sorted(target.argument_union())
    if len(src) != len(tgt) or len(source) != len(target):
        return None
    source_pairs = as_pairs(source)
    for image in permutations(tgt):
        mapping = dict(zip(src, image))
        mapped = {(frozenset(mapping[a] for a in args),
                   frozenset((mapping[s], mapping[t]) for s, t in defs))
                  for args, defs in source_pairs}
        if mapped == as_pairs(target):
            return mapping
    return None


def tuple_signatures(completions) -> dict[str, tuple]:
    """Per-argument occurrence signature as a sorted tuple of
    ``((|args|, |defeats|), in-degree, out-degree, self-defeats)`` entries,
    one per member holding the argument."""
    sigs: dict[str, list] = {}
    for af in completions:
        shape = (len(af.args), len(af.defeats))
        indeg: dict[str, int] = dict.fromkeys(af.args, 0)
        outdeg: dict[str, int] = dict.fromkeys(af.args, 0)
        selfdef: dict[str, int] = dict.fromkeys(af.args, 0)
        for s, t in af.defeats:
            outdeg[s] += 1
            indeg[t] += 1
            if s == t:
                selfdef[s] += 1
        for a in af.args:
            sigs.setdefault(a, []).append(
                (shape, indeg[a], outdeg[a], selfdef[a]))
    return {a: tuple(sorted(entries)) for a, entries in sigs.items()}


def recheck_equivalent(source, target, limits=DEFAULT_LIMITS):
    """The equivalence search that re-checks every source member against
    every target member at each node, from scratch, ordered by
    ``tuple_signatures``.  Same order and same counting as
    ``uarg.equivalent``, so verdict, witness, nodes and prunes must all
    agree with it."""
    src_union = source.argument_union()
    tgt_union = target.argument_union()
    if max(len(src_union), len(tgt_union)) > limits.max_equiv_args:
        raise SearchBoundExceededError(
            f"argument union exceeds max_equiv_args={limits.max_equiv_args}")
    if len(source) != len(target) or len(src_union) != len(tgt_union):
        return EquivalenceResult(NOT_EQUIVALENT, None)
    shapes = sorted((len(af.args), len(af.defeats)) for af in source)
    if shapes != sorted((len(af.args), len(af.defeats)) for af in target):
        return EquivalenceResult(NOT_EQUIVALENT, None)

    src_sig = tuple_signatures(source)
    tgt_sig = tuple_signatures(target)
    tgt_by_sig: dict[tuple, list[str]] = {}
    for name in sorted(tgt_union):
        tgt_by_sig.setdefault(tgt_sig[name], []).append(name)
    src_by_sig: dict[tuple, list[str]] = {}
    for name in sorted(src_union):
        src_by_sig.setdefault(src_sig[name], []).append(name)
    if {sig: len(v) for sig, v in src_by_sig.items()} != \
            {sig: len(v) for sig, v in tgt_by_sig.items()}:
        return EquivalenceResult(NOT_EQUIVALENT, None)

    order = sorted(src_union, key=lambda a: (src_sig[a], a))
    target_afs = list(target)
    assignment: dict[str, str] = {}
    used: set[str] = set()
    stats = {"nodes": 0, "prunes": 0}

    def partial_consistent() -> bool:
        assigned = set(assignment)
        mapped = set(assignment.values())
        for af in source:
            pres = [a for a in af.args if a in assigned]
            img = {assignment[a] for a in pres}
            img_edges = {(assignment[s], assignment[t]) for s, t in af.defeats
                         if s in assigned and t in assigned}
            shape = (len(af.args), len(af.defeats))
            for caf in target_afs:
                if (len(caf.args), len(caf.defeats)) != shape:
                    continue
                if caf.arg_set & mapped != img:
                    continue
                if {(s, t) for s, t in caf.defeats
                        if s in mapped and t in mapped} == img_edges:
                    break
            else:
                return False
        return True

    def search(pos: int) -> Witness | None:
        if pos == len(order):
            witness = Witness(assignment)
            if witness.apply(source) == target:
                return witness
            stats["prunes"] += 1
            return None
        name = order[pos]
        for candidate in tgt_by_sig.get(src_sig[name], ()):
            if candidate in used:
                continue
            stats["nodes"] += 1
            assignment[name] = candidate
            used.add(candidate)
            if partial_consistent():
                found = search(pos + 1)
                if found is not None:
                    return found
            else:
                stats["prunes"] += 1
            del assignment[name]
            used.discard(candidate)
        return None

    witness = search(0)
    if witness is None:
        return EquivalenceResult(NOT_EQUIVALENT, None,
                                 stats["nodes"], stats["prunes"])
    return EquivalenceResult(EQUIVALENT, witness,
                             stats["nodes"], stats["prunes"])


def enumerated_no_equivalent_arg_iaf(target, max_args,
                                     limits=DEFAULT_LIMITS) -> bool:
    """Negative certification by enumeration: every relabelling of the
    target's one full member onto the target's names, with every choice
    of uncertain arguments, is checked with the equivalence search."""
    if max_args > limits.max_search_args:
        raise SearchBoundExceededError(
            f"max_args={max_args} exceeds max_search_args="
            f"{limits.max_search_args}")
    if len(target) == 0:
        return True  # completion sets are never empty
    union = sorted(target.argument_union())
    n = len(union)
    if n > max_args:
        return True
    count = len(target)
    if count & (count - 1):
        return True  # completion counts of plain frameworks are powers of two
    k = count.bit_length() - 1
    if k > n:
        return True
    max_members = [af for af in target if len(af.args) == n]
    if len(max_members) != 1:
        return True
    max_member = max_members[0]

    seen: set[tuple] = set()
    for perm in permutations(range(n)):
        relabel = {max_member.args[i]: union[perm[i]] for i in range(n)}
        defeats = tuple(sorted((relabel[s], relabel[t])
                               for s, t in max_member.defeats))
        if defeats in seen:
            continue
        seen.add(defeats)
        for uncertain in combinations(union, k):
            candidate = ArgIAF(set(union) - set(uncertain), uncertain, defeats)
            completions = completions_arg_iaf(candidate, limits)
            if equivalent(completions, target, limits).equivalent:
                return False
    return True


def scanned_dependency_masks(n: int, deps: list[tuple[int, int, int]]
                             ) -> list[int]:
    """Every one of the 2^n masks tested against every dependency, in
    ascending order; deps are encoded as for uarg.kernels.dependency_masks."""
    out = []
    for mask in range(1 << n):
        for kind, xmask, ymask in deps:
            if kind == DEP_IMPLY:
                if (mask & xmask) == xmask and not (mask & ymask):
                    break
            elif kind == DEP_OR:
                if not (mask & xmask):
                    break
            else:  # DEP_NAND
                if (mask & xmask) == xmask:
                    break
        else:
            out.append(mask)
    return out


def fixpoint_horn_closed_masks(n: int, deps: list[tuple[int, int, int]],
                               max_uncertain: int) -> list[int]:
    """Closed sets of definite Horn rules by re-closing, from scratch with
    full passes over the rules, every closed set plus every free bit; a
    seen set removes repeats.  At most 2^max_uncertain subsets are
    enumerated."""
    rules = [(x, y) for _, x, y in deps]
    cap = 1 << max_uncertain

    def close(mask: int) -> int:
        changed = True
        while changed:
            changed = False
            for xmask, ymask in rules:
                if mask & xmask == xmask and mask & ymask != ymask:
                    mask |= ymask
                    changed = True
        return mask

    start = close(0)
    seen = {start}
    stack = [start]
    full = (1 << n) - 1
    while stack:
        mask = stack.pop()
        free = full & ~mask
        while free:
            low = free & -free
            free ^= low
            closed = close(mask | low)
            if closed not in seen:
                seen.add(closed)
                if len(seen) > cap:
                    raise UncertaintyBoundExceededError(
                        f"more than 2^{max_uncertain} = {cap} dependency-"
                        f"satisfying subsets (bound {max_uncertain}); raise "
                        "it with --max-uncertain or UARG_MAX_UNCERTAIN")
                stack.append(closed)
    return sorted(seen)


def dict_induced_completions(full_af: AbstractAF, load: dict[str, int],
                             masks) -> CompletionSet:
    """One restriction of ``full_af`` per mask, each argument and defeat
    filtered by load, deduplicated and sorted by the public
    ``CompletionSet`` constructor on (args, defeats) pairs."""
    args = [(a, load[a]) for a in full_af.args]
    defeats = [(d, load[d[0]] | load[d[1]]) for d in full_af.defeats]
    graphs: dict[tuple[str, ...], AbstractAF] = {}
    for mask in masks:
        kept = tuple(a for a, need in args if not need & ~mask)
        if kept not in graphs:
            graphs[kept] = AbstractAF._canonical(
                kept, tuple(d for d, need in defeats if not need & ~mask))
    return CompletionSet(graphs.values())


def minimized_by_completions(iaf: ArgIAF, deps, target,
                             limits=DEFAULT_LIMITS) -> frozenset:
    """Greedy minimization in sort-key order: a dependency is dropped when
    the framework without it still has exactly the target's completions,
    built as a whole completion set for every trial."""
    kept = sorted(deps, key=lambda d: d.sort_key())
    for dep in list(kept):
        trial = [d for d in kept if d != dep]
        if completions_dep(DepArgIAF(iaf, trial), limits) == target:
            kept = trial
    return frozenset(kept)
