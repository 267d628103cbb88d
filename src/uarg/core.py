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
from itertools import chain, count
from typing import Iterable, NoReturn, TypeVar

from . import kernels
from .config import DEFAULT_LIMITS, Limits
from .errors import MemberNotInAFError, ParseError, UndeclaredArgumentError

# In a str pattern \s matches exactly the characters str.isspace() accepts.
_FORBIDDEN_ID_CHAR = re.compile(r"[\s(),.]")

_T = TypeVar("_T")

SEMANTICS = ("admissible", "complete", "grounded", "preferred", "stable")


def is_valid_argument_id(name: str) -> bool:
    if not name or not name.isprintable():
        return False
    return _FORBIDDEN_ID_CHAR.search(name) is None


def check_argument_id(name: str) -> str:
    if not is_valid_argument_id(name):
        raise ValueError(f"invalid argument identifier: {name!r}")
    return name


def _trusted(cls: type[_T], *values: object) -> _T:
    """The instance of the frozen dataclass ``cls`` whose fields, in
    declaration order, are ``values``, unchecked: only values derived from
    validated ones, already in the form its public constructor stores, are
    built this way.  Each frozen value class binds it as ``_canonical``."""
    names = cls.__dataclass_fields__
    if len(values) != len(names):
        raise TypeError(f"{cls.__name__} has {len(names)} fields, "
                        f"got {len(values)} values")
    value = object.__new__(cls)
    value.__dict__.update(zip(names, values))  # bypass the frozen __setattr__
    return value


@dataclass(frozen=True)
class AbstractAF:
    """Finite directed defeat graph over argument identifiers."""

    args: tuple[str, ...]
    defeats: tuple[tuple[str, str], ...]

    def __init__(self, args: Iterable[str] = (),
                 defeats: Iterable[tuple[str, str]] = ()):
        arg_set = {check_argument_id(a) for a in args}
        defeat_set = {(s, t) for s, t in defeats}
        stray = [(s, t) for s, t in defeat_set
                 if s not in arg_set or t not in arg_set]
        if stray:  # ordered by repr: an endpoint need not be a str
            s, t = min(stray, key=repr)
            raise UndeclaredArgumentError(
                f"defeat ({s},{t}) has an endpoint outside the framework")
        object.__setattr__(self, "args", tuple(sorted(arg_set)))
        object.__setattr__(self, "defeats", tuple(sorted(defeat_set)))

    _canonical = classmethod(_trusted)

    @property
    def arg_set(self) -> frozenset[str]:
        return frozenset(self.args)

    @property
    def defeat_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.defeats)

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


# The identifier pattern leaves out printability, which each reader checks
# once per distinct identifier.
_ID = r"[^\s(),.]+"
# The items of a bracketed list, whitespace around each.  In the lists of
# an imply line without the ],,[ mark no comma joins "]" to "[", since the
# lists split at "],[".
_ITEMS = rf"\s*{_ID}\s*(?:,\s*{_ID}\s*)*"
_PLAIN_ITEMS = rf"\s*{_ID}\s*(?:(?:(?<!\]),|,(?!\[))\s*{_ID}\s*)*"
# One line of the AF and IAF formats, whitespace around it.  A blank line
# or a comment matches with no group; otherwise the last group that
# matches (``lastindex``) tells the kind, see _KINDS.
_LINE = re.compile(rf"""\s*(?:(?:
    %.*
  | arg\(({_ID})\)\.
  | \?arg\(({_ID})\)\.
  | att\(\s*({_ID})\s*,\s*({_ID})\s*\)\.
  | or\(\[({_ITEMS})\]\)\.
  | nand\(\[({_ITEMS})\]\)\.
  | imply\(\[({_PLAIN_ITEMS})\],\[({_PLAIN_ITEMS})\]\)\.
  | imply\(\[({_ITEMS})\],,\[({_ITEMS})\]\)\.
)\s*)?""", re.VERBOSE)
_KINDS = {1: "arg", 2: "?arg", 4: "att", 5: "or", 6: "nand", 8: "imply",
          10: "imply"}
_AF_KINDS = ("arg", "att")
_IAF_KINDS = ("arg", "?arg", "att", "imply", "or", "nand")
_DEPENDENCY_KINDS = ("imply", "or", "nand")


def _lists_of(match: re.Match) -> tuple[frozenset[str], ...]:
    """The item sets of a dependency line's match: one for or and nand,
    two for imply."""
    i = match.lastindex
    return tuple(frozenset(map(str.strip, part.split(",")))
                 for part in (match.group(i - 1, i) if i > 6
                              else (match[i],)))


def _names(match: re.Match) -> tuple[str, ...]:
    """The identifiers of a matched line that is not blank: an att line's
    in order, a dependency line's those of its item sets."""
    i = match.lastindex
    if i < 5:
        return match.group(3, 4) if i == 4 else (match[i],)
    return tuple(chain.from_iterable(_lists_of(match)))


def _column(line: str) -> int:
    """The column of the first character of ``line`` that is not
    whitespace."""
    return len(line) - len(line.lstrip()) + 1


def _line_parts(line: str, lineno: int,
                kinds: tuple[str, ...]) -> tuple[int, str, str]:
    """(column, kind, body) of a kind(body). line that is not blank; a
    ParseError if the line is of no kind of ``kinds`` or does not end
    with ')."."""
    stripped = line.strip()
    column = _column(line)
    kind, paren, rest = stripped.partition("(")
    if not paren or kind not in kinds:
        raise ParseError(f"unrecognized line: {stripped!r}", lineno, column)
    if not rest.endswith(")."):
        raise ParseError(f"line does not end with ').': {stripped!r}",
                         lineno, column)
    return column, kind, rest[:-2]


def _body_error(kind: str, body: str, lineno: int, column: int) -> ParseError:
    """The error of a line whose body ``_LINE`` refuses or holds an
    identifier that is not printable, found by taking the body apart: an
    arg body is one identifier, an att body two, and a dependency body
    one or two bracketed lists."""
    if kind in ("arg", "?arg"):
        return ParseError(f"invalid identifier {body!r}", lineno, column)
    if kind == "att":
        if all(is_valid_argument_id(name.strip()) for name in body.split(",")):
            return ParseError(f"att needs two identifiers: {body!r}",
                              lineno, column)
        return ParseError(f"invalid identifier in {body!r}", lineno, column)
    if not (body.startswith("[") and body.endswith("]")):
        return ParseError(f"{kind} arguments must be bracketed lists: "
                          f"{body!r}", lineno, column)
    lists = [body[1:-1]]
    if kind == "imply":
        # Identifiers are never empty and never contain commas, so '],,['
        # can only be the mark serialize_dependency puts between two lists
        # that '],[' would not split unambiguously.
        lists = lists[0].split("],,[" if "],,[" in body else "],[")
        if len(lists) != 2:
            return ParseError("imply needs exactly two lists", lineno, column)
    # the body is refused, so if no other list is at fault the last one is
    bad = next((part for part in lists[:-1] if not all(
        is_valid_argument_id(name.strip()) for name in part.split(","))),
        lists[-1])
    return ParseError(f"invalid identifier in {bad!r}", lineno, column)


def _graph_line(line: str, lineno: int) -> str | tuple[str, str] | bool:
    """What one line of an AF text declares: the identifier of an arg
    line, the pair of an att line, or False for a blank line or a
    comment; a ParseError for any other line."""
    match = _LINE.fullmatch(line)
    if match is not None:
        i = match.lastindex
        if i is None:
            return False
        if i == 1 and match[1].isprintable():
            return match[1]
        if i == 4:
            pair = match.group(3, 4)
            if (pair[0] + pair[1]).isprintable():
                return pair
    column, kind, body = _line_parts(line, lineno, _AF_KINDS)
    raise _body_error(kind, body, lineno, column)


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


def _read_document(text: str, *, iaf: bool) -> tuple[
        set[str], set[str], set[tuple[str, str]],
        list[tuple[str, tuple[frozenset[str], ...]]]]:
    """The fixed and uncertain arguments, the defeats and the dependencies
    (kind, lists) of an IAF text, or of an AF text, which has no ?arg or
    dependency line.

    Each ``str.splitlines()`` line is matched once against ``_LINE``, and
    each distinct identifier is checked once for printability: the
    declared ones here, and every other one by being declared.  A document
    that fails a check raises what ``_raise_first_error`` finds."""
    lines = text.splitlines()
    matches = list(map(_LINE.fullmatch, lines))
    fixed: set[str] = set()
    uncertain: set[str] = set()
    defeats: set[tuple[str, str]] = set()
    deps: list[tuple[str, tuple[frozenset[str], ...]]] = []
    if None not in matches:
        add_fixed, add_defeat = fixed.add, defeats.add
        for match in matches:
            i = match.lastindex
            if i == 1:
                add_fixed(match[1])
            elif i == 4:
                add_defeat(match.group(3, 4))
            elif i == 2:
                uncertain.add(match[2])
            elif i:
                deps.append((_KINDS[i], _lists_of(match)))
        declared = fixed | uncertain
        if ((iaf or not (uncertain or deps))
                and "".join(declared).isprintable()
                and fixed.isdisjoint(uncertain)
                and declared.issuperset(chain.from_iterable(defeats))
                and uncertain.issuperset(chain.from_iterable(
                    chain.from_iterable(lists for _, lists in deps)))):
            return fixed, uncertain, defeats, deps
    _raise_first_error(lines, matches, _IAF_KINDS if iaf else _AF_KINDS)


def _raise_first_error(lines: list[str], matches: list[re.Match | None],
                       kinds: tuple[str, ...]) -> NoReturn:
    """Raise the error that checking ``lines`` one at a time meets first,
    numbering them from 1: a line of no kind of ``kinds`` or a
    malformed or unprintable arg or att line, where it stands; then an
    argument declared both fixed and uncertain, at the first line that
    declares it again; then an undeclared att endpoint; then a malformed
    dependency line; then a dependency on an argument that is not
    uncertain.  Only called for a document that fails a check."""
    fixed: set[str] = set()
    uncertain: set[str] = set()
    atts: list[tuple[int, str, str]] = []
    deps: list[tuple[int, tuple[str, ...]]] = []
    clash_at: tuple[int, int] | None = None
    dep_error: ParseError | None = None
    for lineno, line, match in zip(count(1), lines, matches):
        if match is not None:
            if match.lastindex is None:
                continue  # blank or a comment
            kind, names = _KINDS[match.lastindex], _names(match)
        if (match is None or kind not in kinds
                or not "".join(names).isprintable()):
            column, kind, body = _line_parts(line, lineno, kinds)
            error = _body_error(kind, body, lineno, column)
            if kind not in _DEPENDENCY_KINDS:
                raise error
            dep_error = dep_error or error
        elif kind == "att":
            atts.append((lineno, *names))
        elif kind in _DEPENDENCY_KINDS:
            deps.append((lineno, names))
        else:
            same, other = ((uncertain, fixed) if kind == "?arg"
                           else (fixed, uncertain))
            if names[0] in other and clash_at is None:
                clash_at = (lineno, _column(line))
            same.add(names[0])
    if clash_at:
        raise ParseError("arguments declared both fixed and uncertain: "
                         f"{sorted(fixed & uncertain)}", *clash_at)
    _declared_defeats(atts, fixed | uncertain)
    if dep_error:
        raise dep_error
    # every check above passed, so a dependency is what failed
    lineno, names = next((lineno, names) for lineno, names in deps
                         if not uncertain.issuperset(names))
    raise UndeclaredArgumentError(
        f"line {lineno}: dependency mentions arguments that are not "
        f"uncertain: {sorted(set(names) - uncertain)}")


def parse_af(text: str) -> AbstractAF:
    """Parse the AF text format: arg(x). / att(x,y). lines, % comments.
    Errors number the text's lines from 1."""
    args, _, defeats, _ = _read_document(text, iaf=False)
    return AbstractAF._canonical(tuple(sorted(args)), tuple(sorted(defeats)))


def serialize_af(af: AbstractAF) -> str:
    lines = [f"arg({a})." for a in af.args]
    lines += [f"att({s},{t})." for s, t in af.defeats]
    return "\n".join(lines) + ("\n" if lines else "")
