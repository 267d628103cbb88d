"""Completion-set equivalence: one global bijection over argument
identifiers that maps one set of frameworks exactly onto another.

The decision runs a complete backtracking search over bijections, pruned by
occurrence signatures (for each argument, the multiset of per-framework
shapes it occurs in, refined by defeat degrees, each occurrence coded as
one integer).  The target members still consistent with the partial
bijection form one candidate matrix, a single integer with one field per
source member: a bit per target member of the field's row block (shape
classes merged until a block holds at least 64 target members) and a guard
bit above them.  Assigning a name narrows every field at once, with a few
integer operations per new conjunct; a field left empty prunes, and shows
as the one guard bit that adding every candidate bit does not carry into.
A full assignment that narrows is a witness, proved by the matrix; the
search returns it unchecked, and ``check_witness`` is the one check a
caller runs on it.  Shapes, signatures and the matrix are read from the
sets' keys; no member is built.
Negative certification against argument-incomplete frameworks needs no
search over frameworks: completion sets are closed under renaming, so a
target has an equivalent framework iff the one framework that could
produce it under its own names does.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import and_
from typing import Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import DomainMismatchError, SearchBoundExceededError
from .incomplete import (
    CompletionSet,
    _arg_model,
    _complete,
    _entry_columns,
    _fields,
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
    it, must be a target key.  When it sends each graph entry to the
    target's entry at the same place, every key bit stays where it is, and
    the sets are equal iff their keys are.
    """
    if witness.domain != source.argument_union():
        raise DomainMismatchError(
            "witness domain differs from the union of source arguments")
    if witness.codomain != target.argument_union():
        raise DomainMismatchError(
            "witness codomain differs from the union of target arguments")
    if not witness.is_bijective or len(source) != len(target):
        return False
    m = witness.mapping
    src, tgt = source._graph, target._graph
    mapped = [(m[s], m[t]) for s, t in src.defeats]
    if set(mapped) != set(tgt.defeats):
        return False
    names = [m[a] for a in src.args]
    if names == [*tgt.args] and mapped == [*tgt.defeats]:
        return target._keys == source._keys
    bit = {x: 1 << i for i, x in enumerate(tgt.args + tgt.defeats)}
    image = [bit[a] for a in names] + [bit[d] for d in mapped]
    return target._keys.issuperset(_or_images(image, source._keys))


class _KeyTables:
    """What the search reads of a completion set, taken from its union
    graph and keys with no member built: each member's shape
    ``(|args|, |defeats|)``, each argument's occurrence signature, and
    the column of each argument and defeat.  A candidate matrix of one
    row block (``_candidate_matrix``) reads its rows from the source's
    columns and its tiles from the target's, as their member digits
    (``_member_digits``).

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
        self.keys, self.key_bits = keys, key_bits
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
        return _fields(vector.to_bytes(self.size, "little"),
                       8 * self.words, self.code_words)

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

    def by_shape(self, shapes: list[tuple[int, int]]) -> list[int]:
        """The keys, sorted by their members' shapes in the order of
        ``shapes``, and else in the order the key set iterates."""
        rows: dict[tuple[int, int], list[int]] = {s: [] for s in shapes}
        for shape, key in zip(self.shapes, self.keys):
            rows[shape].append(key)
        return [key for shape in shapes for key in rows[shape]]


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _member_digits(columns: list[int], count: int, step: int) -> bytes:
    """For each column of ``count`` fields of ``step`` bytes, each holding
    0 or 1, the fields as binary digits, the last field first, one column
    after another.  Written big-endian, a column's fields run from the
    last one to the first, so the low bytes of its fields are those
    digits."""
    return b"".join([column.to_bytes(count * step, "big")
                     for column in columns])[step - 1::step].translate(
        _DIGITS)


# Row blocks of the candidate matrix are whole shape classes, in sorted
# order, merged until a block holds at least this many target members.
_BLOCK_MEMBERS = 64


def _candidate_matrix(src: _KeyTables, tgt: _KeyTables) -> tuple[
        int, int, int, dict, dict]:
    """The equivalence search's candidate matrix before any assignment,
    and what narrowing it reads.

    The matrix is one integer with one field per source member (a row):
    ``width`` candidate bits, one per target member of the row's block,
    and a guard bit above them, in whole bytes.  Shape classes, in sorted
    order, are merged into row blocks of at least ``_BLOCK_MEMBERS``
    target members, and ``width`` is the size of the largest block; a
    target member has its rank within its block.  A row starts with the
    target members of its own shape.  With one block both sets keep
    their member orders; with several, the members of both are sorted by
    shape, so that each block's rows and its target members are runs.

    ``every`` holds every candidate bit and ``guard`` every guard bit.
    ``lack`` maps each source entry (argument or defeat) to ``every``
    less the rows of the members holding it, and ``tile`` each target
    entry to the members holding it, in every row of each block:
    ``lack[s] ^ tile[t]`` keeps in each row the target members that agree
    with the row's member on holding s and t.

    This is the tables' last reader.  With several blocks it reads none
    of their columns, and empties them before building its own, so that
    the two are never held at once."""
    count = len(tgt.shapes)
    sizes = Counter(tgt.shapes)
    shapes = sorted(sizes)
    blocks: list[int] = []  # target members per block
    place = {}  # the rank within its block of a shape's first member
    for shape in shapes:
        if not blocks or blocks[-1] >= _BLOCK_MEMBERS:
            blocks.append(0)
        place[shape] = blocks[-1]
        blocks[-1] += sizes[shape]
    width = max(blocks, default=0)
    field = width // 8 + 1  # bytes
    if len(blocks) < 2 and field <= 8 * src.words:
        field = 8 * src.words  # the tables' own fields, and their columns
    ones = int.from_bytes(b"\1".ljust(field, b"\0") * count, "little")
    every, guard = (ones << width) - ones, ones << width
    if len(blocks) < 2:  # both sets in their own member order
        columns = src.column + src.held if field == 8 * src.words else \
            _entry_columns(src.graph, src.keys, field, src.key_bits)
        digits = _member_digits(tgt.column + tgt.held, count,
                                8 * tgt.words)
        tile = dict(zip(tgt.graph.args + tgt.graph.defeats, [
            int(digits[i:i + count], 2) * ones  # no member: no digit
            for i in range(0, len(digits), count or 1)]))
        members = dict.fromkeys(shapes, 0)  # of each shape, in the target
        for j, shape in enumerate(tgt.shapes):
            members[shape] |= 1 << j
        row = {shape: mask.to_bytes(field, "little")
               for shape, mask in members.items()}
        rows = b"".join([row[shape] for shape in src.shapes])
    else:  # the members of both sets sorted by shape
        for tables in (src, tgt):  # their columns are read no more
            tables.column = tables.held = []
        columns = _entry_columns(src.graph, src.by_shape(shapes), field,
                                 src.key_bits)
        digits = _member_digits(_entry_columns(tgt.graph,
                                               tgt.by_shape(shapes)),
                                count, 1)
        # each block's digits within an entry's, and its rows
        cuts = [(count - start - size, count - start, size) for start, size
                in zip(accumulate(blocks, initial=0), blocks)]
        tile = dict(zip(tgt.graph.args + tgt.graph.defeats, [
            int.from_bytes(b"".join([
                int(digits[i + low:i + high], 2).to_bytes(field, "little")
                * size for low, high, size in cuts]), "little")
            for i in range(0, len(digits), count)]))
        rows = b"".join([((1 << sizes[shape]) - 1 << place[shape]).to_bytes(
            field, "little") * sizes[shape] for shape in shapes])
    for i, column in enumerate(columns):  # each column freed once used
        columns[i] = every ^ ((column << width) - column)
    lack = dict(zip(src.graph.args + src.graph.defeats, columns))
    return int.from_bytes(rows, "little"), every, guard, lack, tile


def equivalent(source: CompletionSet, target: CompletionSet,
               limits: Limits = DEFAULT_LIMITS,
               identity_only: bool = False) -> EquivalenceResult:
    """Decide equivalence and return a witness on success.

    The search's candidate matrix proves the witness: once every name is
    assigned, each source member keeps only target members that agree
    with it on every argument and defeat, so the witness maps the source
    set onto the target set, and ``check_witness`` accepts it.  The
    search does not check it again.

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
    if sorted(src_sig.values()) != sorted(tgt_sig.values()):
        return EquivalenceResult(NOT_EQUIVALENT, None)
    tgt_by_sig: dict[tuple[int, ...], list[str]] = {}
    for name in sorted(tgt_union):
        tgt_by_sig.setdefault(tgt_sig[name], []).append(name)

    order = sorted(src_union, key=lambda a: (src_sig[a], a))
    options = [tgt_by_sig[src_sig[name]] for name in order]
    first, every, guard, lack, tile = _candidate_matrix(src, tgt)
    # Depth-first over the candidates of each name in order: assigned
    # holds the pairs chosen so far, matrices[i] the candidate matrix with
    # the first i names assigned, and choices[i] the candidates left for
    # name i.
    assigned: list[tuple[str, str]] = []
    used: set[str] = set()
    matrices, choices = [first], []
    nodes = prunes = 0
    while len(assigned) < len(order):
        depth = len(assigned)
        if len(choices) == depth:  # the name's first visit
            choices.append(iter(options[depth]))
        for candidate in choices[depth]:
            if candidate in used:
                continue
            nodes += 1
            narrowed = _narrow(matrices[depth], order[depth], candidate,
                               assigned, lack, tile, every, guard)
            if narrowed is not None:
                assigned.append((order[depth], candidate))
                used.add(candidate)
                matrices.append(narrowed)
                break
            prunes += 1
        else:  # no candidate left: undo the choice one name up
            choices.pop()
            if not assigned:
                return EquivalenceResult(NOT_EQUIVALENT, None, nodes, prunes)
            used.discard(assigned.pop()[1])
            matrices.pop()
    return EquivalenceResult(EQUIVALENT, Witness(assigned), nodes, prunes)


def _narrow(matrix: int, name: str, candidate: str,
            assigned: list[tuple[str, str]], lack: dict, tile: dict,
            every: int, guard: int) -> int | None:
    """The candidate matrix once name -> candidate joins the assignment,
    or None if a row empties.  Consistency is a conjunction over assigned
    names and pairs of them, so only the conjuncts that mention name are
    new: membership of name, and the defeats between name and the names
    assigned so far (itself included).  Each keeps, in the rows of the
    source members that hold the source entry, the target members that
    hold the target entry, and in the other rows those that lack it."""
    matrix &= lack[name] ^ tile[candidate]
    pairs = [((name, name), (candidate, candidate))]
    for a, b in assigned:
        pairs.append(((name, a), (candidate, b)))
        pairs.append(((a, name), (b, candidate)))
    for src_pair, tgt_pair in pairs:
        s = lack.get(src_pair)
        t = tile.get(tgt_pair)
        if s is not None or t is not None:
            matrix &= (every if s is None else s) ^ (t or 0)
    # a row's guard bit carries in iff a candidate is left in it
    return matrix if (matrix + every) & guard == guard else None


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
