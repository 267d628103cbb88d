"""Completion-set equivalence: one global bijection over argument
identifiers that maps one set of frameworks exactly onto another.

The decision runs a complete backtracking search over bijections, pruned by
occurrence signatures (for each argument, the multiset of per-framework
shapes it occurs in, refined by defeat degrees, each occurrence coded as
one integer).  Each source member keeps a bitmask of the target members
still consistent with the partial bijection; assigning a name narrows the
masks, and an empty one prunes.  Shapes, signatures and masks are read
from the sets' keys; no member is built.
Negative certification against argument-incomplete frameworks needs no
search over frameworks: completion sets are closed under renaming, so a
target has an equivalent framework iff the one framework that could
produce it under its own names does.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import DomainMismatchError, SearchBoundExceededError
from .incomplete import (
    CompletionSet,
    _DIGITS,
    _arg_model,
    _complete,
    _entry_columns,
    _or_images,
)
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
    onto the target set.

    Once the witness is known to be a bijection from the source union onto
    the target union, an injective map sends distinct members to distinct
    images, so with equal sizes the sets are equal iff every image is a
    target member.  The witness must map the source's union graph onto the
    target's; it is then a permutation of key bits (arguments onto
    arguments, defeats onto defeats), and each source key, pushed through
    it, must be a target key.
    """
    if witness.domain != source.argument_union():
        raise DomainMismatchError(
            "witness domain differs from the union of source arguments")
    if witness.codomain != target.argument_union():
        raise DomainMismatchError(
            "witness codomain differs from the union of target arguments")
    if not witness.is_bijective:
        return False
    return _maps_onto(source, target, witness.mapping)


def _maps_onto(source: CompletionSet, target: CompletionSet,
               m: dict[str, str]) -> bool:
    """check_witness for a bijection m from the source union onto the
    target union."""
    if len(source) != len(target):
        return False
    src, tgt = source._graph, target._graph
    mapped = [(m[s], m[t]) for s, t in src.defeats]
    if set(mapped) != set(tgt.defeats):
        return False
    bit = {x: 1 << i for i, x in enumerate(tgt.args + tgt.defeats)}
    image = [bit[m[a]] for a in src.args] + [bit[d] for d in mapped]
    return target._keys.issuperset(_or_images(image, source._keys))


class _KeyTables:
    """What the search reads of a completion set, taken from its union
    graph and keys with no member built: each member's shape
    ``(|args|, |defeats|)``, each argument's occurrence signature, and the
    members holding each argument and each defeat.

    Members are numbered in the order the key set iterates; the search
    needs no member order.  Each argument and each defeat has a column
    (``_entry_columns``): one integer with one field of ``words`` 64-bit
    words per member, member k's field at bit ``64*words*k``, holding 1
    iff k holds the entry.  A field is as wide as the widest key and the
    widest signature code, so nothing carries from one field into the
    next, and a sum of columns is a count in every field at once."""

    def __init__(self, completions: CompletionSet, union_size: int):
        graph, keys = completions._graph, completions._keys
        self.radix = radix = union_size + 1
        code_bits = (2 * radix ** 5).bit_length()  # codes < 2 R^5
        key_bits = max(keys, default=0).bit_length()
        self.code_words = -(-code_bits // 64)
        self.words = words = -(-max(key_bits, code_bits) // 64)
        self.size = 8 * words * len(keys)  # bytes of a packed vector
        n = len(graph.args)
        columns = _entry_columns(graph, keys, 8 * words, key_bits)
        place = {a: i for i, a in enumerate(graph.args)}
        self.graph = graph
        self.pairs = [(place[s], place[t]) for s, t in graph.defeats]
        self.column, self.held = columns[:n], columns[n:]
        self.arg_count, self.defeat_count = sum(self.column), sum(self.held)
        self.shapes = list(zip(self._fields(self.arg_count),
                               self._fields(self.defeat_count)))

    def _fields(self, vector: int) -> Sequence[int]:
        """The value in each member's field of a packed vector, member 0
        first.  Every value here fits its field's low word unless it is a
        signature code of a union of thousands of arguments."""
        words = array("Q", vector.to_bytes(self.size, "little"))
        if sys.byteorder == "big":
            words.byteswap()
        values = words[::self.words]
        for j in range(1, self.code_words):
            values = [v | w << 64 * j
                      for v, w in zip(values, words[j::self.words])]
        return values

    def signatures(self) -> dict[str, tuple[int, ...]]:
        """Per-argument occurrence signature: for every framework containing
        the argument, the framework's size profile plus the argument's local
        defeat degrees.  Invariant under renaming, so it soundly prunes
        bijections.

        Each occurrence is one mixed-radix integer, R = union_size + 1:

            (((|args|*R^2 + |defeats|)*R + in-degree)*R + out-degree)*2
                + self-defeat

        Every digit is below its radix (degrees <= union_size, |defeats| <=
        union_size^2), so the code is injective and orders occurrences as
        the tuples of those five numbers would.  Signatures of two sets
        coded with one union size therefore compare and group arguments as
        the tuples do.  A member without the argument codes 0 in its field,
        and every occurrence codes above 0."""
        radix = self.radix
        in_step = 2 * radix
        outs: list[list[int]] = [[] for _ in self.column]
        ins: list[list[int]] = [[] for _ in self.column]
        loops = [0] * len(self.column)
        for (s, t), held in zip(self.pairs, self.held):
            outs[s].append(held)
            ins[t].append(held)
            if s == t:
                loops[s] = held
        shape = (self.arg_count * radix * radix + self.defeat_count) \
            * in_step * radix
        return {a: tuple(sorted(filter(None, self._fields(
                    (shape & (column << 64 * self.words) - column)
                    + sum(into) * in_step + (sum(out) << 1) + loop))))
                for a, column, into, out, loop in zip(
                    self.graph.args, self.column, ins, outs, loops)}

    def member_masks(self) -> tuple[dict[str, int],
                                    dict[tuple[str, str], int]]:
        """For each argument and each defeat, the members holding it, as a
        bitmask over member positions.  Written big-endian, a column's
        fields run from the last member to the first, so the low bytes of
        its fields, as binary digits, are its mask."""
        count, step = len(self.shapes), 8 * self.words
        digits = b"".join([column.to_bytes(self.size, "big")
                           for column in self.column + self.held])[
            step - 1::step].translate(_DIGITS)
        masks = [int(digits[i:i + count], 2)  # no member: no column
                 for i in range(0, len(digits), count or 1)]
        n = len(self.column)
        return (dict(zip(self.graph.args, masks[:n])),
                dict(zip(self.graph.defeats, masks[n:])))


def equivalent(source: CompletionSet, target: CompletionSet,
               limits: Limits = DEFAULT_LIMITS,
               identity_only: bool = False) -> EquivalenceResult:
    """Decide equivalence and return a verified witness on success.

    identity_only skips the search and tests the identity mapping alone,
    for callers that know both sets share one argument universe.  Only
    the search is bounded by ``limits.max_equiv_args``.
    """
    src_union = source.argument_union()
    tgt_union = target.argument_union()
    if len(source) != len(target) or len(src_union) != len(tgt_union):
        return EquivalenceResult(NOT_EQUIVALENT, None)
    if identity_only and source == target:  # compares keys, no member
        return EquivalenceResult(EQUIVALENT, Witness.identity(src_union),
                                 nodes=1)
    src = _KeyTables(source, len(src_union))
    tgt = _KeyTables(target, len(src_union))  # unions of one size
    if sorted(src.shapes) != sorted(tgt.shapes):
        return EquivalenceResult(NOT_EQUIVALENT, None)

    if identity_only:  # the identity was tried iff the unions agree
        return EquivalenceResult(NOT_EQUIVALENT, None,
                                 nodes=int(src_union == tgt_union))

    if len(src_union) > limits.max_equiv_args:  # unions of one size
        raise SearchBoundExceededError(
            f"argument union of {len(src_union)} exceeds max_equiv_args="
            f"{limits.max_equiv_args}; raise it with --max-equiv-args or "
            "UARG_MAX_EQUIV_ARGS")
    src_sig = src.signatures()
    tgt_sig = tgt.signatures()
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
    src_has, src_def = src.member_masks()
    tgt_has, tgt_def = tgt.member_masks()
    full = (1 << len(target)) - 1
    tgt_shape: dict[tuple[int, int], int] = {}
    for j, shape in enumerate(tgt.shapes):
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
            if _maps_onto(source, target, dict(assigned)):
                return Witness(assigned)
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

    witness = search(0, [tgt_shape[shape] for shape in src.shapes])
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
    whole union.  All three are read from the target's keys, so no member
    of the target is built; the candidate's completion set is compared
    with the target under the identity mapping.
    """
    if len(target) == 0:
        return True  # every argument-incomplete framework has a completion
    graph, keys = target._graph, target._keys
    n = len(graph.args)
    if n > max_args:
        return True
    every = reduce(and_, keys)  # bit i: every member holds argument i
    uncertain = tuple(a for i, a in enumerate(graph.args)
                      if not every >> i & 1)
    if len(target) != 1 << len(uncertain):
        return True  # distinct subsets of uncertain arguments, one each
    low = (1 << n) - 1
    full_keys = [k for k in keys if k & low == low]
    if len(full_keys) != 1:
        return True
    if full_keys[0] >> n:
        # the full member lacks a defeat that another member holds, but
        # every completion holds only defeats of the full one
        return True
    # the candidate's completion set, over the target's graph itself
    completions = _complete(_arg_model(graph, uncertain), limits)
    return not equivalent(completions, target, limits,
                          identity_only=True).equivalent


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
