"""Argument-incomplete frameworks, dependency semantics, completion
enumeration, and dependency synthesis from a target completion set.

A completion keeps all fixed arguments, any subset of the uncertain ones,
and the induced defeats.  Dependencies filter which subsets are admissible:

* ImplyDisj(all_of, any_of): if every member of all_of is present, at least
  one member of any_of must be present;
* Or(any_of): at least one member must be present;
* Nand(not_all_of): not all members may be present together.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import reduce
from itertools import compress, repeat
from operator import or_
from typing import (Callable, Collection, Iterable, Iterator, NamedTuple,
                    Sequence)

from . import kernels
from .config import DEFAULT_LIMITS, Limits
from .core import AbstractAF, _read_document, _trusted, check_argument_id
from .errors import (
    TargetNotRepresentableError,
    TargetNotSubsetError,
    UncertaintyBoundExceededError,
)

# Subset filtering switches from plain enumeration to closure-based
# enumeration above this width when every dependency is implicative.
_HORN_THRESHOLD = 14

# Packed fields of 1, 2, 4 or 8 bytes are written and read as machine
# integers, of these array typecodes, and wider ones read as 64-bit words.
_CELLS = {array(code).itemsize: code for code in "BHILQ"}


@dataclass(frozen=True)
class ArgIAF:
    """Framework whose arguments are split into fixed and uncertain parts;
    defeats are certain and may touch both parts."""

    fixed_args: tuple[str, ...]
    uncertain_args: tuple[str, ...]
    defeats: tuple[tuple[str, str], ...]

    def __init__(self, fixed_args: Iterable[str] = (),
                 uncertain_args: Iterable[str] = (),
                 defeats: Iterable[tuple[str, str]] = ()):
        fixed = {check_argument_id(a) for a in fixed_args}
        uncertain = {check_argument_id(a) for a in uncertain_args}
        overlap = fixed & uncertain
        if overlap:
            raise ValueError(
                f"arguments cannot be both fixed and uncertain: {sorted(overlap)}")
        full = fixed | uncertain
        defeat_set = {(s, t) for s, t in defeats}
        stray = [(s, t) for s, t in defeat_set if s not in full or t not in full]
        if stray:  # ordered by repr: an endpoint need not be a str
            s, t = min(stray, key=repr)
            raise ValueError(
                f"defeat ({s},{t}) has an endpoint outside the framework")
        object.__setattr__(self, "fixed_args", tuple(sorted(fixed)))
        object.__setattr__(self, "uncertain_args", tuple(sorted(uncertain)))
        object.__setattr__(self, "defeats", tuple(sorted(defeat_set)))

    _canonical = classmethod(_trusted)

    @property
    def all_args(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.fixed_args) | set(self.uncertain_args)))

    def full_af(self) -> AbstractAF:
        return AbstractAF._canonical(self.all_args, self.defeats)


class Dependency:
    """Base for the three dependency variants.

    Each variant is one clause over the uncertain arguments, returned by
    ``clause`` as (pos, neg): a subset falsifies it iff it holds all of
    pos and none of neg."""

    __slots__ = ()

    def clause(self) -> tuple[frozenset[str], frozenset[str]]:
        raise NotImplementedError


def _nonempty_id_set(values: Iterable[str], what: str) -> frozenset[str]:
    out = frozenset(check_argument_id(v) for v in values)
    if not out:
        raise ValueError(f"{what} must be non-empty")
    return out


@dataclass(frozen=True)
class ImplyDisj(Dependency):
    all_of: frozenset[str]
    any_of: frozenset[str]

    def __init__(self, all_of: Iterable[str], any_of: Iterable[str]):
        object.__setattr__(self, "all_of",
                           _nonempty_id_set(all_of, "ImplyDisj.all_of"))
        object.__setattr__(self, "any_of",
                           _nonempty_id_set(any_of, "ImplyDisj.any_of"))

    _canonical = classmethod(_trusted)

    def clause(self) -> tuple[frozenset[str], frozenset[str]]:
        return self.all_of, self.any_of


@dataclass(frozen=True)
class Or(Dependency):
    any_of: frozenset[str]

    def __init__(self, any_of: Iterable[str]):
        object.__setattr__(self, "any_of", _nonempty_id_set(any_of, "Or.any_of"))

    _canonical = classmethod(_trusted)

    def clause(self) -> tuple[frozenset[str], frozenset[str]]:
        return frozenset(), self.any_of


@dataclass(frozen=True)
class Nand(Dependency):
    not_all_of: frozenset[str]

    def __init__(self, not_all_of: Iterable[str]):
        object.__setattr__(self, "not_all_of",
                           _nonempty_id_set(not_all_of, "Nand.not_all_of"))

    _canonical = classmethod(_trusted)

    def clause(self) -> tuple[frozenset[str], frozenset[str]]:
        return self.not_all_of, frozenset()


_DEPENDENCY_TYPES = {"imply": ImplyDisj, "or": Or, "nand": Nand}


@dataclass(frozen=True)
class DepArgIAF:
    base: ArgIAF
    deps: frozenset[Dependency]

    def __init__(self, base: ArgIAF, deps: Iterable[Dependency] = ()):
        deps = frozenset(deps)
        uncertain = set(base.uncertain_args)
        stray: set[str] = set()
        for dep in deps:
            pos, neg = dep.clause()
            stray.update(pos - uncertain, neg - uncertain)
        if stray:  # all of them, so the message does not follow set order
            raise ValueError("dependency mentions arguments that are not "
                             f"uncertain: {sorted(stray)}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "deps", deps)

    _canonical = classmethod(_trusted)


class CompletionSet:
    """Canonical, deduplicated set of frameworks with deterministic order.

    A set is its union graph ``_graph`` (the sorted arguments and defeats
    that at least one member holds) and the frozenset of its members' keys
    (``_keys``).  With n graph arguments, bit i of a key is the graph's
    i-th argument, and bit n + j is the graph's j-th defeat when the
    member holds both its endpoints but not the defeat.  A member
    restricted from one graph lacks no such defeat, so its key is its
    argument mask.  Sizes, equality, hashing and lookups read the keys as
    a set.  Only ``_ordered`` puts them in member order, for building the
    members, which happens on their first use and is cached, and for
    writing a document: it sorts the keys by the rank of their argument
    masks (``_member_order``) and reads both from the columns of that
    sorted packing.  Every set is built by ``_keyed``, and a restricted
    one from one table of ORs when every subset is kept
    (``_all_subset_completions``), else from its masks' columns
    (``_induced_completions``)."""

    __slots__ = ("_graph", "_keys", "_members", "_coder")

    def __new__(cls, members: Iterable[AbstractAF] = ()) -> "CompletionSet":
        """The set of ``members``, keyed over their union graph; the
        members themselves are not kept."""
        members = tuple(members)
        graph = AbstractAF._canonical(
            tuple(sorted(set().union(*(af.args for af in members)))),
            tuple(sorted(set().union(*(af.defeats for af in members)))))
        key = _key_coder(graph)
        return cls._keyed(graph, [key(af.args, af.defeats) for af in members])

    @classmethod
    def _keyed(cls, graph: AbstractAF, keys: Iterable[int]) -> "CompletionSet":
        """The set whose members have ``keys`` over ``graph``, which must
        be exactly their union.  The keys may come in any order and
        repeat; they are kept as a frozenset, unsorted.  Nothing is
        checked, so only sets derived from validated frameworks are built
        this way."""
        out = object.__new__(cls)
        out._graph, out._keys = graph, frozenset(keys)
        out._members = out._coder = None
        return out

    def _ordered(self) -> "_Ordered":
        """The keys in member order and their columns in that order,
        computed on each call: only building the members and the document
        writer read them."""
        return _member_order(self._graph, self._keys)

    @property
    def members(self) -> tuple[AbstractAF, ...]:
        if self._members is None:
            args, defeats = self._graph.args, self._graph.defeats
            keys, columns = self._ordered()
            count = len(keys)
            # the columns entry-major, so member r's byte per entry is the
            # stride slice from r
            held = b"".join([column.to_bytes(count, "little")
                             for column in columns])
            first = count * len(args)  # where the defeats' bytes start
            self._members = tuple(AbstractAF._canonical(
                tuple(compress(args, held[r:first:count])),
                tuple(compress(defeats, held[first + r::count])))
                for r in range(count))
        return self._members

    def argument_union(self) -> frozenset[str]:
        return frozenset(self._graph.args)

    def __iter__(self) -> Iterator[AbstractAF]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, af: object) -> bool:
        if not isinstance(af, AbstractAF):
            return False
        if self._coder is None:  # built on the first lookup
            self._coder = _key_coder(self._graph)
        try:
            return self._coder(af.args, af.defeats) in self._keys
        except KeyError:  # an argument or a defeat outside the union
            return False

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CompletionSet) and \
            self._keys == other._keys and self._graph == other._graph

    def __hash__(self) -> int:
        return hash((self._graph, self._keys))

    def __repr__(self) -> str:
        return f"CompletionSet({len(self)} frameworks)"


def _key_coder(graph: AbstractAF) -> Callable[..., int]:
    """The function from the arguments and defeats of a member over
    ``graph`` to its key; KeyError for an argument or a defeat outside
    the graph.  Either may repeat.  Key bit i is entry i of
    ``graph.args + graph.defeats``."""
    bit = {x: 1 << i for i, x in enumerate(graph.args + graph.defeats)}
    width, low = len(bit), (1 << len(graph.args)) - 1
    # code[a]: a's bit and its outgoing defeats; above the key width, its
    # incoming defeats and every argument bit
    code = {a: bit[a] | low << width for a in graph.args}
    for s, t in graph.defeats:
        code[s] |= bit[s, t]
        code[t] |= bit[s, t] << width

    def key(args: Iterable[str], defeats: Iterable[tuple[str, str]]) -> int:
        # the member's arguments and the defeats between them (bits that
        # both halves hold), minus the defeats it holds
        both = reduce(or_, map(code.__getitem__, args), 0)
        return both & both >> width ^ reduce(or_, map(bit.__getitem__,
                                                      defeats), 0)
    return key


def _field_size(bits: int) -> int:
    """The bytes of the narrowest field of 1, 2, 4 or a whole number of 8
    bytes that holds ``bits`` bits."""
    size = 1
    while 8 * size < bits:
        size *= 2
    return size if size <= 8 else 8 * -(-bits // 64)


def _field_bytes(values: Collection[int], field: int) -> bytes:
    """``values``, in the order they iterate, side by side in fields of
    ``field`` bytes, little-endian, the first value first.  Each value
    must fit its field.  A field of at most 8 bytes is written through
    the narrowest machine integer cell that holds it (``_field_size``),
    taking the cell's low bytes; a wider one is written a value at a
    time, which is faster than splitting the values into 64-bit words."""
    cell = _field_size(8 * field)
    if cell > 8:
        return b"".join(map(int.to_bytes, values, repeat(field),
                            repeat("little")))
    cells = array(_CELLS[cell], values)
    if sys.byteorder == "big":
        cells.byteswap()
    if cell == field:
        return cells.tobytes()
    data, out = cells.tobytes(), bytearray(field * len(values))
    for b in range(field):
        out[b::field] = data[b::cell]
    return bytes(out)


def _fields(data: bytes, field: int, read: int | None = None
            ) -> Sequence[int]:
    """The values of the little-endian fields of ``field`` bytes
    (``_field_size``) in ``data``, the first field first.  A field wider
    than 8 bytes is read from its low ``read`` 64-bit words, all of them
    by default."""
    cells = array(_CELLS[min(field, 8)], data)
    if sys.byteorder == "big":
        cells.byteswap()
    if field <= 8:
        return cells
    words = field // 8
    values = cells[::words]
    for j in range(1, words if read is None else read):
        values = [v | c << 64 * j for v, c in zip(values, cells[j::words])]
    return values


def _ones(count: int, field: int) -> int:
    """An integer with ``count`` fields of ``field`` bytes, each holding
    1."""
    return int.from_bytes(b"\1".ljust(field, b"\0") * count, "little")


def _key_columns(keys: Collection[int], bits: int, field: int = 1,
                 top: int | None = None) -> list[int]:
    """The column of each key bit below ``bits``: an integer with one
    ``field``-byte field per key, in the order ``keys`` iterates, holding
    1 where that key has the bit, else 0.  ``top`` is the bit length of
    the widest key, taken here unless the caller has it.  Keys are packed
    once, by ``_field_bytes``.  When every key fits its field, they are
    packed into the fields, and column i is that integer shifted by i.
    Otherwise they are packed as few bytes each as the widest key needs,
    and read by ``_row_columns``."""
    if top is None:
        top = max(keys, default=0).bit_length()  # at most bits
    if top > 8 * field:
        width = (top + 7) // 8
        return _row_columns(_field_bytes(keys, width), width, bits, field,
                            top)
    packed = int.from_bytes(_field_bytes(keys, field), "little")
    ones = _ones(len(keys), field)
    return [packed >> i & ones for i in range(top)] + [0] * (bits - top)


def _row_columns(packed: bytes, width: int, bits: int, field: int,
                 top: int) -> list[int]:
    """``_key_columns`` of the keys packed side by side in ``packed``,
    ``width`` bytes each, little-endian: byte b of every key is the
    stride slice ``packed[b::width]``, spaced out into the fields' low
    bytes, and each column is a shift of one such row."""
    count = len(packed) // width
    ones = _ones(count, field)
    spaced = bytearray(field * count)
    columns = []
    for b in range((top + 7) // 8):
        spaced[::field] = packed[b::width]
        row = int.from_bytes(spaced, "little")
        columns += [row >> i & ones for i in range(8)]
    del columns[top:]
    return columns + [0] * (bits - top)  # bits that no key has


def _entry_columns(graph: AbstractAF, keys: Collection[int],
                   field: int = 1, top: int | None = None) -> list[int]:
    """One column per entry of ``graph.args + graph.defeats``: an integer
    with one ``field``-byte field per key, in the order ``keys`` iterates,
    holding 1 where that member holds the entry, else 0 (``top`` as for
    ``_key_columns``)."""
    return _held(graph, _key_columns(keys, len(graph.args) +
                                     len(graph.defeats), field, top))


def _held(graph: AbstractAF, columns: list[int]) -> list[int]:
    """The key columns of ``graph``'s entries made the columns of what
    each member holds, in place: a member holds a defeat iff it holds
    both endpoints and its key has no lack bit for it."""
    n = len(graph.args)
    held = dict(zip(graph.args, columns))
    # a key has a lack bit only where it holds both endpoints
    columns[n:] = [held[s] & held[t] ^ lack
                   for (s, t), lack in zip(graph.defeats, columns[n:])]
    return columns


def _or_images(values: list[int], masks: Collection[int]) -> list[int]:
    """For each mask, in the order ``masks`` iterates, the OR of
    ``values[i]`` over its set bits i.  Masks are read eight bits at a
    time, up to the highest bit any of them has, through a table of the
    ORs of every subset of those eight values; masks of at most 16 bits
    are read through both of their tables in one pass."""
    values = values[:max(masks, default=0).bit_length()]
    if len(values) <= 8:  # the whole mask indexes the one table
        return list(map(_subset_ors(values).__getitem__, masks))
    if len(values) <= 16:
        first, second = _subset_ors(values[:8]), _subset_ors(values[8:])
        return [first[m & 255] | second[m >> 8] for m in masks]
    out = [0] * len(masks)
    for low in range(0, len(values), 8):
        table = _subset_ors(values[low:low + 8])
        out = [o | table[m >> low & 255] for o, m in zip(out, masks)]
    return out


def _subset_ors(values: list[int]) -> list[int]:
    """The OR of every subset of ``values``, at the index whose set bits
    are the subset's positions."""
    table = [0]
    for value in values:
        table += [t | value for t in table]
    return table


def _rank(columns: list[int]) -> int:
    """Each field's preorder index among all masks over ``columns``
    (column j holds 1 in the fields whose mask keeps position j), in one
    integer with the fields of the columns: the masks' sorted tuples of
    kept positions in ascending order, a tuple before any that extends
    it.  The masks before m are its proper prefixes, one per kept
    position, and, for each position j that m drops below its last kept
    one, the 2^(n-1-j) masks that agree with m below j and keep j:

        rank(m) = popcount(m) + sum of 2^(n-1-j) over those j

    which is below 2^n.  One pass from the last position down: ``after``
    holds the fields that keep a later position."""
    rank = after = 0
    for shift, column in enumerate(reversed(columns)):
        later = after | column
        rank += column + ((later ^ column) << shift)
        after = later
    return rank


class _Ordered(NamedTuple):
    """A set's keys in member order, and the column of each entry of its
    graph (``_entry_columns``) with one byte per member in that order."""

    keys: tuple[int, ...]
    columns: list[int]


def _member_order(graph: AbstractAF, keys: Collection[int]) -> _Ordered:
    """The ``keys`` over ``graph``, which are distinct, in the order of
    their members, and their columns in that order.

    Members compare as their sorted (args, defeats) tuples, each a
    sub-sequence of the graph's, so an argument mask sorts by its
    ``_rank``, and two keys share an argument mask only when one has a
    lack bit: then the rank of the defeats they hold breaks the tie.
    The keys are packed once into fields as narrow as the ranks and keys
    allow, the ranks are computed a column at a time over that packing,
    each key goes into the low bits of its rank's field, and the fields
    are sorted as plain integers.  The sorted fields, packed again, give
    the keys' columns in member order."""
    n, d, count = len(graph.args), len(graph.defeats), len(keys)
    top = max(keys, default=0).bit_length()
    ties = d if top > n else 0  # some key has a lack bit
    field = _field_size(n + ties + top)
    packed = int.from_bytes(_field_bytes(keys, field), "little")
    ones = _ones(count, field)
    held = _held(graph, [packed >> i & ones for i in range(n + ties)])
    rank = _rank(held[:n]) << ties | _rank(held[n:])
    data = _field_bytes(sorted(_fields((rank << top | packed).to_bytes(
        field * count, "little"), field)), field)
    low = int.from_bytes(data, "little") & ones * ((1 << top) - 1)
    return _Ordered(tuple(_fields(low.to_bytes(field * count, "little"),
                                  field)),
                    _held(graph, _row_columns(data, field, n + d, 1, top)))


def _induced_completions(full_af: AbstractAF, load: dict[str, int],
                         masks: Collection[int]) -> CompletionSet:
    """One restriction of ``full_af`` per mask over the uncertain elements:
    argument a is kept under mask m iff ``load[a] & ~m == 0``, and a
    defeat iff both its endpoints are.  Defeats are induced, so masks
    keeping the same arguments share one member, and the set is the part
    of ``full_af`` they hold with one argument mask per member.

    The masks are packed once, side by side; a's column, holding 1 in
    the fields of the masks that keep a, is the AND of the columns of
    the elements of ``load[a]``.  The arguments kept somewhere are the
    non-zero columns, the union's defeats are those whose endpoints'
    columns meet, and the columns of the kept arguments, renumbered,
    sum to the members' keys."""
    args, count = full_af.args, len(masks)
    field = _field_size(max(max(masks, default=0).bit_length(), len(args)))
    packed = int.from_bytes(_field_bytes(masks, field), "little")
    ones = _ones(count, field)
    element = [packed >> b & ones for b in
               range(max(load.values(), default=0).bit_length())]
    columns = []
    for a in args:
        column, need = ones, load[a]
        while need:
            low = need & -need
            need ^= low
            column &= element[low.bit_length() - 1]
        columns.append(column)
    kept = [column for column in columns if column]
    keys = frozenset(_fields(sum(column << k for k, column in enumerate(
        kept)).to_bytes(field * count, "little"), field))
    if len(kept) < len(args) or (1 << len(args)) - 1 not in keys:
        # no member holds the whole graph, so it may hold more than the
        # union
        held = dict(zip(args, columns))
        full_af = AbstractAF._canonical(
            tuple(compress(args, columns)),
            tuple((s, t) for s, t in full_af.defeats if held[s] & held[t]))
    return CompletionSet._keyed(full_af, keys)


class _Model(NamedTuple):
    """What a completion set of any kind is read from: the union
    ``graph``, each argument's ``load`` (a mask over the ``width``
    uncertain elements it needs), and (pos, neg) ``clauses`` over the
    elements that a kept subset must satisfy."""

    graph: AbstractAF
    load: dict[str, int]
    width: int
    clauses: Collection[tuple[int, int]] = ()


def _arg_model(graph: AbstractAF, uncertain: tuple[str, ...],
               deps: Iterable[Dependency] = ()) -> _Model:
    """The model of an argument-incomplete framework over its union
    ``graph``: each ``uncertain`` argument carries its own bit, in order,
    any other none.  ``deps`` become clauses over those bits, in ascending
    order, so the work on them does not follow the hash seed."""
    load = dict.fromkeys(graph.args, 0)
    load.update((a, 1 << i) for i, a in enumerate(uncertain))
    bits = load.__getitem__
    return _Model(graph, load, len(uncertain), sorted(
        (sum(map(bits, pos)), sum(map(bits, neg)))
        for pos, neg in (dep.clause() for dep in deps)))


def completions_arg_iaf(iaf: ArgIAF,
                        limits: Limits = DEFAULT_LIMITS) -> CompletionSet:
    """All 2^|uncertain| completions; distinct subsets give distinct
    argument sets, so the count is exact."""
    return _complete(_arg_model(iaf.full_af(), iaf.uncertain_args), limits)


def is_implicative(diaf: DepArgIAF) -> bool:
    """Every clause has a non-empty pos and exactly one neg: an
    implication from a set to one argument."""
    return all(pos and len(neg) == 1
               for pos, neg in (dep.clause() for dep in diaf.deps))


def _horn_closed_masks(n: int, clauses: list[tuple[int, int]],
                       max_uncertain: int) -> list[int]:
    """Closure-based enumeration of satisfying subsets when every clause
    (pos, neg) is an implication from a non-empty pos to the one bit of
    neg (definite Horn clauses); the satisfying subsets are exactly the
    sets closed under the rules.

    Close-by-One (Kuznetsov 1993): from a closed set A reached through
    bit y, each bit i >= y outside A gives the closure of A | {i}, which is
    kept, and searched from i + 1, only if it adds no bit below i.  Every
    closed set is reached exactly once that way, so the cost scales with
    the number of closed sets, not with 2^n.  The closure is incremental,
    with rules indexed by premise bit (Beeri & Bernstein 1979): adding
    bits only fires rules that mention them.  Raises iff there are more
    than 2^max_uncertain closed sets.  Results are ascending."""
    cap = 1 << max_uncertain
    by_premise: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for xmask, ymask in clauses:
        rest = xmask
        while rest:
            low = rest & -rest
            rest ^= low
            by_premise[low.bit_length() - 1].append((xmask, ymask))

    def close(mask: int, todo: int, below: int) -> int:
        """The closure of ``mask``, whose bits outside ``todo`` are closed
        already, or -1 as soon as it would add a bit of ``below``."""
        while todo:
            low = todo & -todo
            todo ^= low
            for xmask, ymask in by_premise[low.bit_length() - 1]:
                new = ymask & ~mask
                if new and mask & xmask == xmask:
                    if new & below:
                        return -1
                    mask |= new
                    todo |= new
        return mask

    out = []
    stack = [(0, 0)]  # every rule has a premise, so the empty set is closed
    while stack:
        mask, y = stack.pop()
        out.append(mask)
        if len(out) > cap:
            raise UncertaintyBoundExceededError(
                f"more than 2^{max_uncertain} = {cap} dependency-"
                f"satisfying subsets (bound {max_uncertain}); raise "
                "it with --max-uncertain or UARG_MAX_UNCERTAIN")
        for i in range(y, n):
            bit = 1 << i
            if not mask & bit:
                closed = close(mask | bit, bit, bit - 1)
                if closed >= 0:
                    stack.append((closed, i + 1))
    out.sort()
    return out


def _masks(model: _Model, limits: Limits) -> Collection[int]:
    """Ascending masks of the subsets of the model's elements that satisfy
    every clause: the one mask source, so the one place the uncertainty
    bound is checked.  Wide implicative models (the translation targets)
    stay tractable through closure enumeration, bounded on members."""
    width, clauses = model.width, model.clauses
    if clauses and width > _HORN_THRESHOLD and all(
            pos and neg and not neg & (neg - 1) for pos, neg in clauses):
        return _horn_closed_masks(width, clauses, limits.max_uncertain)
    if width > limits.max_uncertain:
        raise UncertaintyBoundExceededError(
            f"{width} uncertain elements exceed the bound "
            f"{limits.max_uncertain} (2^{width} subsets); raise it with "
            "--max-uncertain or UARG_MAX_UNCERTAIN")
    if clauses:
        return kernels.dependency_masks(width, clauses)
    return range(1 << width)


def _complete(model: _Model, limits: Limits) -> CompletionSet:
    """The completion set of ``model``: its graph under each mask.  A
    model with no clause keeps every subset of its elements, once
    ``_masks`` has checked their number against the bound, and those are
    read from one table (``_all_subset_completions``): at every width
    measured, 0 to 18, it took less time and memory than the packed
    restriction."""
    masks = _masks(model, limits)
    if not model.clauses:
        return _all_subset_completions(model)
    return _induced_completions(model.graph, model.load, masks)


def _all_subset_completions(model: _Model) -> CompletionSet:
    """``_induced_completions`` over every mask of the model's elements:
    ``drop[e]`` holds the arguments that need element e, so the subsets
    of elements drop exactly the ORs of subsets of ``drop``
    (``_subset_ors``), and each member's key is the full argument mask
    without them.  The full subset keeps every argument, so the union is
    the model's own graph."""
    args, load = model.graph.args, model.load
    drop = [0] * model.width
    for i, a in enumerate(args):
        need = load[a]
        while need:
            low = need & -need
            need ^= low
            drop[low.bit_length() - 1] |= 1 << i
    full = (1 << len(args)) - 1
    return CompletionSet._keyed(model.graph, map(full.__xor__,
                                                 _subset_ors(drop)))


def completions_dep(diaf: DepArgIAF,
                    limits: Limits = DEFAULT_LIMITS) -> CompletionSet:
    """Completions of the base framework whose argument sets satisfy every
    dependency."""
    base = diaf.base
    return _complete(_arg_model(base.full_af(), base.uncertain_args,
                                diaf.deps), limits)


def parse_iaf(text: str) -> DepArgIAF:
    """Parse the IAF text format.

    Extends the AF format with ?arg(x). for uncertain arguments and
    imply([..],[..]). / or([..]). / nand([..]). dependency lines; list
    items are comma-separated identifiers.  An imply line whose lists hold
    bracketed identifiers may mark the boundary between them with ',,':
    imply([..],,[..]).
    """
    fixed, uncertain, defeats, deps = _read_document(text, iaf=True)
    base = ArgIAF._canonical(tuple(sorted(fixed)), tuple(sorted(uncertain)),
                             tuple(sorted(defeats)))
    return DepArgIAF._canonical(base, frozenset(
        _DEPENDENCY_TYPES[kind]._canonical(*lists) for kind, lists in deps))


def serialize_dependency(dep: Dependency) -> str:
    """The dependency's line, its kind read from its clause (pos, neg):
    no pos is ``or``, no neg is ``nand``, and both are ``imply``."""
    pos, neg = dep.clause()
    pos, neg = ",".join(sorted(pos)), ",".join(sorted(neg))
    if not pos:
        return f"or([{neg}])."
    if not neg:
        return f"nand([{pos}])."
    body = f"[{pos}],[{neg}]"
    if body.count("],[") > 1:  # ids with brackets: mark the boundary
        body = f"[{pos}],,[{neg}]"
    return f"imply({body})."


def serialize_iaf(value: DepArgIAF | ArgIAF) -> str:
    diaf = value if isinstance(value, DepArgIAF) else DepArgIAF(value)
    base = diaf.base
    lines = [f"arg({a})." for a in base.fixed_args]
    lines += [f"?arg({a})." for a in base.uncertain_args]
    lines += [f"att({s},{t})." for s, t in base.defeats]
    lines += sorted(serialize_dependency(dep) for dep in diaf.deps)
    return "\n".join(lines) + ("\n" if lines else "")


def _stray_count(iaf: ArgIAF, target: CompletionSet) -> int:
    """How many members of ``target`` are not completions of ``iaf``,
    read from the target's union graph and keys, mapped by name onto
    ``iaf``, with no member built.  A completion holds every fixed
    argument, no argument outside ``iaf``, and exactly the defeats of
    ``iaf`` between the arguments it holds."""
    graph = target._graph
    held = dict(zip(graph.args + graph.defeats,
                    _entry_columns(graph, target._keys)))
    every = int.from_bytes(b"\1" * len(target), "little")
    known = set(iaf.fixed_args) | set(iaf.uncertain_args)
    defeats = set(iaf.defeats)
    # the columns of the members missing a fixed argument, holding an
    # argument or a defeat outside iaf, or holding both endpoints of a
    # defeat of iaf without it
    stray = [every ^ held.get(a, 0) for a in iaf.fixed_args]
    stray += [held[a] for a in graph.args if a not in known]
    stray += [held[d] for d in graph.defeats if d not in defeats]
    stray += [held.get(s, 0) & held.get(t, 0) ^ held.get((s, t), 0)
              for s, t in iaf.defeats]
    return reduce(or_, stray, 0).bit_count()


def synthesize_dependencies(iaf: ArgIAF, target: CompletionSet,
                            minimize: bool = False,
                            limits: Limits = DEFAULT_LIMITS,
                            ) -> frozenset[Dependency]:
    """Build a dependency set whose filtered completions are exactly
    ``target``.

    One dependency per excluded completion: the clause over the uncertain
    arguments that negates the excluded subset, rendered as Or when every
    literal is positive, Nand when every literal is negative, and ImplyDisj
    (present part implies one absent member) for mixed clauses.

    The set is irredundant as built, so ``minimize`` changes nothing: every
    clause mentions every uncertain argument, so exactly one subset, the
    one it excludes, falsifies it, and without it the framework would
    readmit a subset that the target lacks.
    """
    uncertain = iaf.uncertain_args
    # iaf's model over the target's graph, so no framework is built; only
    # its masks and loads are read
    model = _arg_model(target._graph, uncertain)
    masks = _masks(model, limits)
    stray = _stray_count(iaf, target)
    if stray:
        raise TargetNotSubsetError(
            f"{stray} target frameworks are not completions of the "
            "framework")
    # Each member is a completion, so its key is its argument mask, and
    # distinct completions keep distinct subsets of uncertain arguments.
    excluded = set(masks).difference(_or_images(
        [model.load[a] for a in target._graph.args], target._keys))
    deps: list[Dependency] = []
    for mask in sorted(excluded):
        present = [a for i, a in enumerate(uncertain) if mask >> i & 1]
        absent = [a for i, a in enumerate(uncertain) if not mask >> i & 1]
        if not present and not absent:
            raise TargetNotRepresentableError(
                "cannot exclude the unique completion of a framework "
                "without uncertain arguments")
        # every name is an uncertain argument of the validated iaf
        if not present:
            deps.append(Or._canonical(frozenset(absent)))
        elif not absent:
            deps.append(Nand._canonical(frozenset(present)))
        else:
            deps.append(ImplyDisj._canonical(frozenset(present),
                                             frozenset(absent)))
    return frozenset(deps)
