"""Document formats: the theory JSON schema, completion-set documents, and
kind-dispatched framework loading for the CLI.

A completion-set document is a concatenation of AF texts, each section
terminated by a line containing only ``---`` (the terminator after the last
section may be omitted for hand-written files).
"""

from __future__ import annotations

import json
from itertools import chain, starmap
from operator import itemgetter
from typing import Any, NamedTuple

from .aspic import (
    DEFEASIBLE,
    STRICT,
    SAF,
    ArgumentationTheory,
    Rule,
    make_theory,
)
from .core import (
    _DEPENDENCY_KINDS,
    _KINDS,
    _LINE,
    AbstractAF,
    _column,
    _declared_defeats,
    _graph_line,
    parse_af,
    serialize_af,
)
from .errors import InvalidTheoryError, MixedUncertaintyError, ParseError
from .incomplete import (
    ArgIAF,
    CompletionSet,
    DepArgIAF,
    _key_coder,
    parse_iaf,
    serialize_iaf,
)
from .isaf import PremISAF, RulISAF

FRAMEWORK_KINDS = ("af", "arg-iaf", "dep-arg-iaf", "rul-isaf", "prem-isaf", "saf")


class TheoryDocument(NamedTuple):
    """A theory document read into its theory, with what it declares
    uncertain and its preferences."""

    theory: ArgumentationTheory
    uncertain_rules: frozenset[Rule]
    uncertain_axioms: frozenset[str]
    uncertain_premises: frozenset[str]
    preferences: frozenset[tuple[str, str]]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidTheoryError(message)


def _list(obj: Any, where: str) -> list:
    _require(isinstance(obj, list), f"{where} must be a list")
    return obj


def _str_list(obj: Any, where: str) -> list[str]:
    _require(all(isinstance(x, str) for x in _list(obj, where)),
             f"{where} must be a list of strings")
    return list(obj)


def _pairs(obj: Any, where: str, shape: str) -> list[tuple[str, str]]:
    out = []
    for pair in _list(obj, where):
        _require(isinstance(pair, list) and len(pair) == 2
                 and all(isinstance(x, str) for x in pair),
                 f"{where} entries must be {shape} pairs of strings")
        out.append((pair[0], pair[1]))
    return out


def load_theory_document(source: str | dict) -> TheoryDocument:
    """Read a theory document into its theory in one pass.  Errors come in
    this order: JSON syntax, the document's shape (a rule, meaning its
    body, head and kind, is listed once, and no axiom or premise is both
    fixed and uncertain), then the theory (``validate_theory``, which
    checks each formula once)."""
    if isinstance(source, str):
        try:
            obj = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno,
                             exc.colno) from None
        except (ValueError, RecursionError) as exc:
            # an integer literal too long to convert, or nesting too deep
            raise ParseError(f"invalid JSON: {exc}", 1, 1) from None
    else:
        obj = source
    _require(isinstance(obj, dict), "theory document must be a JSON object")

    close_negation = obj.get("close_negation", False)
    _require(isinstance(close_negation, bool),
             "close_negation must be true or false")
    formulas = _str_list(obj.get("formulas", []), "formulas")
    contraries = _pairs(obj.get("contraries", []), "contraries", "[phi, psi]")
    rules: set[Rule] = set()
    naming: dict[Rule, str] = {}
    uncertain: set[Rule] = set()
    for entry in _list(obj.get("rules", []), "rules"):
        _require(isinstance(entry, dict), "rules entries must be objects")
        kind = entry.get("kind", DEFEASIBLE)
        _require(kind in (STRICT, DEFEASIBLE),
                 f"rule kind must be strict or defeasible: {kind!r}")
        status = entry.get("status", "fixed")
        _require(status in ("fixed", "uncertain"),
                 f"rule status must be fixed or uncertain: {status!r}")
        head, name = entry.get("head"), entry.get("name")
        _require(isinstance(head, str), "rule head must be a string")
        _require(name is None or isinstance(name, str),
                 "rule name must be a string")
        rule = Rule(_str_list(entry.get("body", []), "rule body"), head, kind)
        _require(rule not in rules, f"rule {rule!r} is listed twice")
        rules.add(rule)
        if name is not None:
            naming[rule] = name
        if status == "uncertain":
            uncertain.add(rule)
    kb = obj.get("kb", {})
    _require(isinstance(kb, dict), "kb must be an object")
    axioms_fixed = _str_list(kb.get("axioms_fixed", []), "kb.axioms_fixed")
    axioms_uncertain = _str_list(kb.get("axioms_uncertain", []),
                                 "kb.axioms_uncertain")
    premises_fixed = _str_list(kb.get("premises_fixed", []),
                               "kb.premises_fixed")
    premises_uncertain = _str_list(kb.get("premises_uncertain", []),
                                   "kb.premises_uncertain")
    both = (set(axioms_fixed) & set(axioms_uncertain)
            | set(premises_fixed) & set(premises_uncertain))
    _require(not both, f"formula {min(both, default=None)!r} is listed as "
             "both fixed and uncertain")
    preferences = _pairs(obj.get("preferences", []), "preferences", "[a, b]")
    theory = make_theory(
        contraries=contraries,
        rules=rules,
        naming=naming,
        axioms=axioms_fixed + axioms_uncertain,
        premises=premises_fixed + premises_uncertain,
        formulas=formulas,
        close_negation=close_negation,
    )
    return TheoryDocument(theory, frozenset(uncertain),
                          frozenset(axioms_uncertain),
                          frozenset(premises_uncertain),
                          frozenset(preferences))


def build_saf(doc: TheoryDocument) -> SAF:
    if doc.uncertain_rules or doc.uncertain_axioms or doc.uncertain_premises:
        raise MixedUncertaintyError(
            "document declares uncertainty; load it as rul-isaf or prem-isaf")
    return SAF(doc.theory, doc.preferences)


def build_rul_isaf(doc: TheoryDocument) -> RulISAF:
    if doc.uncertain_axioms or doc.uncertain_premises:
        raise MixedUncertaintyError(
            "rule-incomplete documents may not declare uncertain knowledge")
    return RulISAF(doc.theory, doc.uncertain_rules, doc.preferences)


def build_prem_isaf(doc: TheoryDocument) -> PremISAF:
    if doc.uncertain_rules:
        raise MixedUncertaintyError(
            "premise-incomplete documents may not declare uncertain rules")
    return PremISAF(doc.theory, doc.uncertain_axioms, doc.uncertain_premises,
                    doc.preferences)


def theory_document_of(framework: SAF | RulISAF | PremISAF) -> dict:
    """Deterministic JSON form of a structured framework."""
    if isinstance(framework, SAF):
        theory, uncertain_rules = framework.theory, frozenset()
        uncertain_axioms: frozenset[str] = frozenset()
        uncertain_premises: frozenset[str] = frozenset()
    elif isinstance(framework, RulISAF):
        theory, uncertain_rules = framework.theory, framework.uncertain_rules
        uncertain_axioms, uncertain_premises = frozenset(), frozenset()
    else:
        theory, uncertain_rules = framework.theory, frozenset()
        uncertain_axioms = framework.uncertain_axioms
        uncertain_premises = framework.uncertain_premises
    rules = []
    for rule in sorted(theory.rules, key=Rule.sort_key):
        rules.append({
            "body": sorted(rule.body),
            "head": rule.head,
            "kind": rule.kind,
            "status": "uncertain" if rule in uncertain_rules else "fixed",
            "name": theory.naming.get(rule),
        })
    return {
        "formulas": sorted(theory.formulas),
        "contraries": [list(pair) for pair in sorted(theory.contraries)],
        "close_negation": False,
        "rules": rules,
        "kb": {
            "axioms_fixed": sorted(theory.axioms - uncertain_axioms),
            "axioms_uncertain": sorted(uncertain_axioms),
            "premises_fixed": sorted(theory.premises - uncertain_premises),
            "premises_uncertain": sorted(uncertain_premises),
        },
        "preferences": [list(pair)
                        for pair in sorted(framework.preferences)],
    }


def parse_completion_set(text: str) -> CompletionSet:
    """Errors give the line within the whole document.

    Every ``---`` line closes a member, an empty one too; the lines after
    the last one are a member iff one of them is not blank (a comment
    counts).  Each distinct line is read and validated once.  A member's
    att lines are checked against its own arg lines when it closes, so
    every error names the line that reading the sections one by one with
    ``parse_af`` would name.  Every line read belongs to a member, so the
    union graph is what was read, and each member is keyed over it from
    its lines without being built."""
    lines = text.splitlines()
    read: dict[str, str | tuple[str, str] | bool] = {}  # True for ---
    members: list[tuple[list[str], list[tuple[str, str]]]] = []
    args: list[str] = []
    atts: list[tuple[str, str]] = []
    first = 0  # the index of the open member's first line

    def close(end: int) -> tuple[list[str], list[tuple[str, str]]]:
        declared = set(args)
        if not declared.issuperset(chain.from_iterable(atts)):
            _declared_defeats([(k + 1, *read[lines[k]])
                               for k in range(first, end)
                               if read[lines[k]].__class__ is tuple], declared)
        return args, atts

    for i, line in enumerate(lines):
        entry = read.get(line)
        if entry is None:
            entry = read[line] = (line.strip() == "---"
                                  or _graph_line(line, i + 1))
        if entry is True:
            members.append(close(i))
            args, atts, first = [], [], i + 1
        elif entry.__class__ is str:
            args.append(entry)
        elif entry:
            atts.append(entry)
    if any(map(str.strip, lines[first:])):
        members.append(close(len(lines)))
    entries = set(read.values())
    graph = AbstractAF._canonical(
        tuple(sorted(e for e in entries if e.__class__ is str)),
        tuple(sorted(e for e in entries if e.__class__ is tuple)))
    return CompletionSet._keyed(graph, starmap(_key_coder(graph), members))


def serialize_completion_set(completions: CompletionSet) -> str:
    """Each member's ``serialize_af`` text followed by a ``---`` line,
    written a column at a time, so no member is built and nothing loops
    over the members in Python.

    The column of a graph line holds one byte per member, in member
    order: 1 where the member holds that argument or defeat, else 0.  The
    order and the columns come from one sort of the packed keys by the
    rank of their argument masks (``CompletionSet._ordered``).  The lines
    go eight at a time; their columns, shifted by 0 to 7 and ORed, give
    each member a byte whose bits pick its lines of the run, and a table
    of the joins of every subset of those lines turns that byte into its
    text."""
    graph = completions._graph
    keys, columns = completions._ordered()
    args, defeats = graph.args, graph.defeats
    lines = [f"arg({a}).\n" for a in args]
    lines += [f"att({s},{t}).\n" for s, t in defeats]
    pending = iter(columns)
    step = (len(lines) + 7) // 8 + 1  # a member's runs, then its ---
    parts = ["---\n"] * (step * len(keys))
    for run, low in enumerate(range(0, len(lines), 8)):
        table = [""]  # table[v]: the run's lines at the set bits of v
        for line in lines[low:low + 8]:
            table += [t + line for t in table]
        byte = 0
        for k, held_by in zip(range(8), pending):
            byte |= held_by << k
        # the leading 0 keeps a tuple when there is one member
        parts[run::step] = itemgetter(0, *byte.to_bytes(len(keys),
                                                        "little"))(table)[1:]
    return "".join(parts)


def load_framework(text: str, kind: str):
    """Parse a framework document of the declared kind."""
    if kind == "af":
        return parse_af(text)
    if kind in ("arg-iaf", "dep-arg-iaf"):
        diaf = parse_iaf(text)
        if kind == "arg-iaf":
            if diaf.deps:  # named at the first dependency line
                lineno, line = next(
                    (lineno, line)
                    for lineno, line in enumerate(text.splitlines(), 1)
                    if _KINDS.get(_LINE.fullmatch(line).lastindex)
                    in _DEPENDENCY_KINDS)
                raise ParseError(
                    "document declares dependencies; load it as dep-arg-iaf",
                    lineno, _column(line))
            return diaf.base
        return diaf
    if kind in ("rul-isaf", "prem-isaf", "saf"):
        doc = load_theory_document(text)
        if kind == "rul-isaf":
            return build_rul_isaf(doc)
        if kind == "prem-isaf":
            return build_prem_isaf(doc)
        return build_saf(doc)
    raise ValueError(f"unknown framework kind {kind!r}; "
                     f"expected one of {FRAMEWORK_KINDS}")


def serialize_framework(framework) -> str:
    if isinstance(framework, AbstractAF):
        return serialize_af(framework)
    if isinstance(framework, (ArgIAF, DepArgIAF)):
        return serialize_iaf(framework)
    return json.dumps(theory_document_of(framework), indent=2,
                      sort_keys=True) + "\n"
