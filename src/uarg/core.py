"""Abstract argumentation frameworks: canonical storage, restriction,
extension semantics, and the APX-style text format.

An argument identifier is a non-empty printable token without whitespace,
parentheses, commas or periods, so every identifier can appear verbatim in
arg(...)/att(...) lines.  Frameworks are stored canonically (sorted argument
and defeat tuples): structural equality is set equality and frameworks are
hashable, which is what keeps completion-set deduplication cheap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from . import kernels
from .config import DEFAULT_LIMITS, Limits
from .errors import MemberNotInAFError, ParseError, UndeclaredArgumentError

# In a str pattern \s matches exactly the characters str.isspace() accepts.
_FORBIDDEN_ID_CHAR = re.compile(r"[\s(),.]")

SEMANTICS = ("admissible", "complete", "grounded", "preferred", "stable")


def is_valid_argument_id(name: str) -> bool:
    if not name or not name.isprintable():
        return False
    return _FORBIDDEN_ID_CHAR.search(name) is None


def check_argument_id(name: str) -> str:
    if not is_valid_argument_id(name):
        raise ValueError(f"invalid argument identifier: {name!r}")
    return name


@dataclass(frozen=True)
class AbstractAF:
    """Finite directed defeat graph over argument identifiers."""

    args: tuple[str, ...]
    defeats: tuple[tuple[str, str], ...]

    def __init__(self, args: Iterable[str] = (),
                 defeats: Iterable[tuple[str, str]] = ()):
        arg_set = {check_argument_id(a) for a in args}
        defeat_set = {(s, t) for s, t in defeats}
        for s, t in defeat_set:
            if s not in arg_set or t not in arg_set:
                raise UndeclaredArgumentError(
                    f"defeat ({s},{t}) has an endpoint outside the framework")
        object.__setattr__(self, "args", tuple(sorted(arg_set)))
        object.__setattr__(self, "defeats", tuple(sorted(defeat_set)))

    @classmethod
    def _canonical(cls, args: tuple[str, ...],
                   defeats: tuple[tuple[str, str], ...]) -> "AbstractAF":
        """Framework from tuples that are already canonical: valid
        identifiers, sorted and duplicate-free, every defeat inside
        ``args``.  Nothing is checked, so only graphs derived from a
        validated framework are built this way."""
        af = object.__new__(cls)
        fields = af.__dict__  # frozen: bypass the dataclass __setattr__
        fields["args"] = args
        fields["defeats"] = defeats
        return af

    @property
    def arg_set(self) -> frozenset[str]:
        return frozenset(self.args)

    @property
    def defeat_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.defeats)

    def restrict(self, keep: Iterable[str]) -> "AbstractAF":
        return restrict(self, keep)

    def __repr__(self) -> str:
        return f"AbstractAF(args={list(self.args)}, defeats={list(self.defeats)})"


def restrict(af: AbstractAF, keep: Iterable[str]) -> AbstractAF:
    """Sub-framework induced by ``af.args & keep``; extra names in keep are
    ignored.  Both tuples are sub-sequences of af's, so they stay
    canonical."""
    keep = set(keep)
    return AbstractAF._canonical(
        tuple(a for a in af.args if a in keep),
        tuple((s, t) for s, t in af.defeats if s in keep and t in keep))


def af_equal(x: AbstractAF, y: AbstractAF) -> bool:
    return x.args == y.args and x.defeats == y.defeats


def _check_members(af: AbstractAF, members: Iterable[str]) -> frozenset[str]:
    members = frozenset(members)
    stray = members - af.arg_set
    if stray:
        raise MemberNotInAFError(
            f"extension members not in framework: {sorted(stray)}")
    return members


def is_conflict_free(af: AbstractAF, members: Iterable[str]) -> bool:
    members = _check_members(af, members)
    return not any(s in members and t in members for s, t in af.defeats)


def is_admissible(af: AbstractAF, members: Iterable[str]) -> bool:
    """Conflict-free and self-defending: every defeater of a member is
    defeated by some member."""
    members = _check_members(af, members)
    if not is_conflict_free(af, members):
        return False
    defeated = {t for s, t in af.defeats if s in members}
    return all(s in defeated for s, t in af.defeats if t in members)


class _Compiled:
    """What ``extensions`` reads of one framework: the argument order,
    each argument's attackers and targets as masks over it, and, once a
    semantics other than grounded is asked for, the admissible, complete
    and stable masks of ``kernels.semantics_masks``."""

    __slots__ = ("order", "attackers", "targets", "masks")

    def __init__(self, af: AbstractAF):
        self.order = order = af.args
        index = {a: i for i, a in enumerate(order)}
        self.attackers = attackers = [0] * len(order)
        self.targets = targets = [0] * len(order)
        for s, t in af.defeats:
            attackers[index[t]] |= 1 << index[s]
            targets[index[s]] |= 1 << index[t]
        self.masks: tuple[list[int], list[int], list[int]] | None = None

    def search(self) -> tuple[list[int], list[int], list[int]]:
        if self.masks is None:
            self.masks = kernels.semantics_masks(len(self.order),
                                                 self.attackers, self.targets)
        return self.masks


def _compiled(af: AbstractAF) -> _Compiled:
    """The record of af, built on the first call and kept in
    ``af.__dict__``, out of ``==``, ``hash`` and ``repr``.  Concurrent
    first calls may each build one; they are equal."""
    record = af.__dict__.get("_compiled")
    if record is None:
        record = af.__dict__["_compiled"] = _Compiled(af)
    return record


def _mask_to_extension(mask: int, order: tuple[str, ...]) -> frozenset[str]:
    return frozenset(order[i] for i in range(len(order)) if mask >> i & 1)


def _grounded_mask(attackers: list[int], targets: list[int]) -> int:
    """The least fixpoint of the defence function, by worklist: the
    unattacked arguments go in, their targets go out, and an argument
    whose attackers are all out goes in."""
    work = [i for i, a in enumerate(attackers) if not a]
    grounded, out = sum(1 << i for i in work), 0
    for i in work:  # the list grows while it is read
        beaten = targets[i] & ~out
        out |= beaten
        reached = 0
        while beaten:
            low = beaten & -beaten
            beaten ^= low
            reached |= targets[low.bit_length() - 1]
        reached &= ~(grounded | out)
        while reached:
            low = reached & -reached
            reached ^= low
            j = low.bit_length() - 1
            if not attackers[j] & ~out:
                grounded |= low  # queued once: reached now excludes it
                work.append(j)
    return grounded


def _maximal_masks(masks: list[int]) -> list[int]:
    masks = sorted(masks, key=lambda m: -bin(m).count("1"))
    kept: list[int] = []
    for m in masks:
        if not any(m | k == k for k in kept):
            kept.append(m)
    return kept


def extensions(af: AbstractAF, sigma: str,
               limits: Limits = DEFAULT_LIMITS) -> tuple[frozenset[str], ...]:
    """All sigma-extensions, canonically ordered.

    Admissible, complete and stable sets come from one backtracking search
    per framework, run on the first call that needs it and kept with the
    framework.  It never extends a set by an argument in conflict with it
    and drops a set as soon as one of its attackers can no longer be
    answered, so its cost follows the admissible sets rather than the
    conflict-free ones or 2^n.  Grounded is a worklist fixpoint and
    preferred the maximal complete sets.
    """
    if sigma not in SEMANTICS:
        raise ValueError(f"unknown semantics {sigma!r}; pick one of {SEMANTICS}")
    record = _compiled(af)
    if sigma == "grounded":
        masks = [_grounded_mask(record.attackers, record.targets)]
    else:
        admissible, complete, stable = record.search()
        masks = (admissible if sigma == "admissible"
                 else complete if sigma == "complete"
                 else stable if sigma == "stable"
                 else _maximal_masks(complete))
    order = record.order
    exts = [_mask_to_extension(m, order) for m in masks]
    return tuple(sorted(exts, key=sorted))


def _read_lines(text: str, kinds: tuple[str, ...],
                first_line: int = 1) -> Iterator[tuple[int, int, str, str]]:
    """(line, column, kind, body) for each kind(body). line of ``text``,
    skipping blank lines and % comments; a ParseError for any other line
    or a kind outside ``kinds``.  Lines are numbered from first_line and
    columns point at the first character that is not whitespace."""
    for lineno, line in enumerate(text.splitlines(), start=first_line):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        column = line.index(stripped[0]) + 1
        kind, paren, rest = stripped.partition("(")
        if not paren or kind not in kinds:
            raise ParseError(f"unrecognized line: {stripped!r}", lineno, column)
        if not rest.endswith(")."):
            raise ParseError(f"line does not end with ').': {stripped!r}",
                             lineno, column)
        yield lineno, column, kind, rest[:-2]


def _split_ids(body: str, lineno: int, column: int) -> list[str]:
    """The comma-separated identifiers of ``body``, stripped of the
    whitespace around them; a ParseError if one is not valid."""
    names = [name.strip() for name in body.split(",")]
    if not all(map(is_valid_argument_id, names)):
        raise ParseError(f"invalid identifier in {body!r}", lineno, column)
    return names


def _read_graph_line(kind: str, body: str, lineno: int,
                     column: int) -> list[str]:
    """The identifier of an arg-like line, taken verbatim, or the two
    names of an att line."""
    if kind != "att":
        if not is_valid_argument_id(body):
            raise ParseError(f"invalid identifier {body!r}", lineno, column)
        return [body]
    names = _split_ids(body, lineno, column)
    if len(names) != 2:
        raise ParseError(f"att needs two identifiers: {body!r}",
                         lineno, column)
    return names


def _declared_defeats(atts: list[tuple[int, str, str]],
                      declared: set[str]) -> set[tuple[str, str]]:
    """The defeats of the att lines (lineno, s, t), each endpoint
    declared."""
    for lineno, s, t in atts:
        for name in (s, t):
            if name not in declared:
                raise UndeclaredArgumentError(f"line {lineno}: att references "
                                              f"undeclared argument {name!r}")
    return {(s, t) for _, s, t in atts}


def parse_af(text: str, *, first_line: int = 1) -> AbstractAF:
    """Parse the AF text format: arg(x). / att(x,y). lines, % comments.
    Errors number the text's lines from first_line."""
    args: set[str] = set()
    atts: list[tuple[int, str, str]] = []
    for lineno, column, kind, body in _read_lines(text, ("arg", "att"),
                                                  first_line):
        names = _read_graph_line(kind, body, lineno, column)
        if kind == "arg":
            args.add(names[0])
        else:
            atts.append((lineno, *names))
    return AbstractAF(args, _declared_defeats(atts, args))


def serialize_af(af: AbstractAF) -> str:
    lines = [f"arg({a})." for a in af.args]
    lines += [f"att({s},{t})." for s, t in af.defeats]
    return "\n".join(lines) + ("\n" if lines else "")
