"""Completion-set equivalence: one global bijection over argument
identifiers that maps one set of frameworks exactly onto another.

The decision runs a complete backtracking search over bijections, pruned by
occurrence signatures (for each argument, the multiset of per-framework
shapes it occurs in, refined by defeat degrees, each occurrence coded as
one integer).  Each source member keeps a bitmask of the target members
still consistent with the partial bijection; assigning a name narrows the
masks, and an empty one prunes.
Negative certification against argument-incomplete frameworks needs no
search over frameworks: completion sets are closed under renaming, so a
target has an equivalent framework iff the one framework that could
produce it under its own names does.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .config import DEFAULT_LIMITS, Limits
from .errors import DomainMismatchError, SearchBoundExceededError
from .incomplete import ArgIAF, CompletionSet, completions_arg_iaf
from .translate import Witness

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"


@dataclass(frozen=True)
class EquivalenceResult:
    verdict: str
    witness: Witness | None
    nodes: int = 0
    prunes: int = 0

    @property
    def equivalent(self) -> bool:
        return self.verdict == EQUIVALENT


def check_witness(source: CompletionSet, target: CompletionSet,
                  witness: Witness) -> bool:
    """True iff the witness is bijective and maps the source set exactly
    onto the target set."""
    if witness.domain != source.argument_union():
        raise DomainMismatchError(
            "witness domain differs from the union of source arguments")
    if witness.codomain != target.argument_union():
        raise DomainMismatchError(
            "witness codomain differs from the union of target arguments")
    if not witness.is_bijective:
        return False
    return witness.apply(source) == target


def _signatures(completions: CompletionSet,
                union_size: int) -> dict[str, tuple[int, ...]]:
    """Per-argument occurrence signature: for every framework containing the
    argument, the framework's size profile plus the argument's local defeat
    degrees.  Invariant under renaming, so it soundly prunes bijections.

    Each occurrence is one mixed-radix integer, R = union_size + 1:

        (((|args|*R^2 + |defeats|)*R + in-degree)*R + out-degree)*2
            + self-defeat

    Every digit is below its radix (degrees <= union_size, |defeats| <=
    union_size^2), so the code is injective and orders occurrences as the
    tuples of those five numbers would.  Signatures of two sets coded with
    one union size therefore compare and group arguments as the tuples do.
    """
    radix = union_size + 1
    in_step = 2 * radix
    sigs: defaultdict[str, list[int]] = defaultdict(list)
    for af in completions:
        code = dict.fromkeys(af.args, (len(af.args) * radix * radix
                                       + len(af.defeats)) * in_step * radix)
        for s, t in af.defeats:
            code[s] += 2
            code[t] += in_step
            if s == t:
                code[s] += 1
        for a, c in code.items():
            sigs[a].append(c)
    return {a: tuple(sorted(codes)) for a, codes in sigs.items()}


def _member_masks(completions: CompletionSet) -> tuple[
        dict[str, int], dict[tuple[str, str], int]]:
    """For each argument and each defeat, the members holding it, as a
    bitmask over member positions."""
    has: dict[str, int] = {}
    defeats: dict[tuple[str, str], int] = {}
    for i, af in enumerate(completions):
        bit = 1 << i
        for a in af.args:
            has[a] = has.get(a, 0) | bit
        for d in af.defeats:
            defeats[d] = defeats.get(d, 0) | bit
    return has, defeats


def equivalent(source: CompletionSet, target: CompletionSet,
               limits: Limits = DEFAULT_LIMITS,
               identity_only: bool = False) -> EquivalenceResult:
    """Decide equivalence and return a verified witness on success.

    identity_only skips the search and tests the identity mapping alone,
    for callers that know both sets share one argument universe.
    """
    src_union = source.argument_union()
    tgt_union = target.argument_union()
    if max(len(src_union), len(tgt_union)) > limits.max_equiv_args:
        raise SearchBoundExceededError(
            f"argument union of {max(len(src_union), len(tgt_union))} "
            f"exceeds max_equiv_args={limits.max_equiv_args}; raise it with "
            "--max-equiv-args or UARG_MAX_EQUIV_ARGS")
    if len(source) != len(target) or len(src_union) != len(tgt_union):
        return EquivalenceResult(NOT_EQUIVALENT, None)
    shapes = sorted((len(af.args), len(af.defeats)) for af in source)
    if shapes != sorted((len(af.args), len(af.defeats)) for af in target):
        return EquivalenceResult(NOT_EQUIVALENT, None)

    if identity_only:
        if src_union != tgt_union:
            return EquivalenceResult(NOT_EQUIVALENT, None)
        witness = Witness.identity(src_union)
        if witness.apply(source) == target:
            return EquivalenceResult(EQUIVALENT, witness, nodes=1)
        return EquivalenceResult(NOT_EQUIVALENT, None, nodes=1)

    src_sig = _signatures(source, len(src_union))
    tgt_sig = _signatures(target, len(src_union))  # unions of one size
    tgt_by_sig: dict[tuple[int, ...], list[str]] = {}
    for name in sorted(tgt_union):
        tgt_by_sig.setdefault(tgt_sig[name], []).append(name)
    src_by_sig: dict[tuple[int, ...], list[str]] = {}
    for name in sorted(src_union):
        src_by_sig.setdefault(src_sig[name], []).append(name)
    if {sig: len(v) for sig, v in src_by_sig.items()} != \
            {sig: len(v) for sig, v in tgt_by_sig.items()}:
        return EquivalenceResult(NOT_EQUIVALENT, None)

    order = sorted(src_union, key=lambda a: (src_sig[a], a))
    src_has, src_def = _member_masks(source)
    tgt_has, tgt_def = _member_masks(target)
    full = (1 << len(target)) - 1
    tgt_shape: dict[tuple[int, int], int] = {}
    for j, af in enumerate(target):
        shape = (len(af.args), len(af.defeats))
        tgt_shape[shape] = tgt_shape.get(shape, 0) | 1 << j
    assigned: list[tuple[str, str]] = []
    used: set[str] = set()
    stats = {"nodes": 0, "prunes": 0}

    def narrow(masks: list[int], name: str,
               candidate: str) -> list[int] | None:
        """Each source member's mask of consistent target members once
        name -> candidate joins the assignment, or None if one empties.
        Consistency is a conjunction over assigned names and pairs of
        them, so only the conjuncts that mention name are new: membership
        of name, and the defeats between name and the names assigned so
        far (itself included)."""
        has_t = tgt_has[candidate]
        lacks_t = full ^ has_t
        pairs = [((name, name), (candidate, candidate))]
        for a, b in assigned:
            pairs.append(((name, a), (candidate, b)))
            pairs.append(((a, name), (b, candidate)))
        checks = []
        for src_pair, tgt_pair in pairs:
            s = src_def.get(src_pair, 0)
            t = tgt_def.get(tgt_pair, 0)
            if s or t:
                checks.append((s, t, full ^ t))
        has_s = src_has[name]
        out = []
        for i, mask in enumerate(masks):
            if has_s >> i & 1:
                mask &= has_t
                for s, t, lacks in checks:
                    mask &= t if s >> i & 1 else lacks
            else:
                # no defeat of name here, and no target member left in
                # the mask holds candidate, so none of its defeats either
                mask &= lacks_t
            if not mask:
                return None
            out.append(mask)
        return out

    def search(pos: int, masks: list[int]) -> Witness | None:
        if pos == len(order):
            witness = Witness(assigned)
            if witness.apply(source) == target:
                return witness
            stats["prunes"] += 1
            return None
        name = order[pos]
        for candidate in tgt_by_sig.get(src_sig[name], ()):
            if candidate in used:
                continue
            stats["nodes"] += 1
            narrowed = narrow(masks, name, candidate)
            if narrowed is None:
                stats["prunes"] += 1
                continue
            assigned.append((name, candidate))
            used.add(candidate)
            found = search(pos + 1, narrowed)
            if found is not None:
                return found
            assigned.pop()
            used.discard(candidate)
        return None

    witness = search(0, [tgt_shape[(len(af.args), len(af.defeats))]
                         for af in source])
    if witness is None:
        return EquivalenceResult(NOT_EQUIVALENT, None,
                                 stats["nodes"], stats["prunes"])
    return EquivalenceResult(EQUIVALENT, witness,
                             stats["nodes"], stats["prunes"])


def no_equivalent_arg_iaf(target: CompletionSet, max_args: int,
                          limits: Limits = DEFAULT_LIMITS) -> bool:
    """True iff no argument-incomplete framework over at most max_args
    arguments (any fixed/uncertain split, any defeat relation, modulo
    renaming) has a completion set equivalent to the target.

    Completion sets of argument-incomplete frameworks are closed under
    renaming, so the target has an equivalent one iff it is one itself,
    under its own names.  Only one framework can produce it: its fixed
    arguments are in every member, its uncertain ones are the rest of the
    union, and its defeats are those of the one member that holds the
    whole union.  That candidate is built and compared with the target
    under the identity mapping.
    """
    if max_args > limits.max_search_args:
        raise SearchBoundExceededError(
            f"max_args={max_args} exceeds max_search_args="
            f"{limits.max_search_args}; raise it with --max-search-args "
            "or UARG_MAX_SEARCH_ARGS")
    if len(target) == 0:
        return True  # completion sets are never empty
    union = target.argument_union()
    if len(union) > max_args:
        return True
    fixed = union.intersection(*(af.args for af in target))
    uncertain = union - fixed
    if len(target) != 1 << len(uncertain):
        return True  # distinct subsets of uncertain arguments, one each
    full_members = [af for af in target if len(af.args) == len(union)]
    if len(full_members) != 1:
        return True
    candidate = ArgIAF(fixed, uncertain, full_members[0].defeats)
    return not equivalent(completions_arg_iaf(candidate, limits), target,
                          limits, identity_only=True).equivalent


def equivalence_properties_check(s: CompletionSet, t: CompletionSet,
                                 u: CompletionSet,
                                 limits: Limits = DEFAULT_LIMITS) -> bool:
    """Instance-level sanity of the equivalence relation: reflexivity with
    an identity witness, symmetry via witness inversion, transitivity via
    witness composition."""
    refl = equivalent(s, s, limits)
    if not (refl.equivalent and check_witness(s, s, refl.witness)):
        return False
    st = equivalent(s, t, limits)
    if st.equivalent and not check_witness(t, s, st.witness.invert()):
        return False
    tu = equivalent(t, u, limits)
    if tu.equivalent and not check_witness(u, t, tu.witness.invert()):
        return False
    if st.equivalent and tu.equivalent:
        composed = st.witness.compose(tu.witness)
        if not check_witness(s, u, composed):
            return False
    return True
