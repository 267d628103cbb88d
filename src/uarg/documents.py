"""Document formats: the theory JSON schema, completion-set documents, and
kind-dispatched framework loading for the CLI.

A completion-set document is a concatenation of AF texts, each section
terminated by a line containing only ``---`` (the terminator after the last
section may be omitted for hand-written files).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain, starmap
from operator import itemgetter
from typing import Any

from .aspic import (
    DEFEASIBLE,
    STRICT,
    SAF,
    Rule,
    is_valid_formula,
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
    _entry_columns,
    _key_coder,
    parse_iaf,
    serialize_iaf,
)
from .isaf import PremISAF, RulISAF

FRAMEWORK_KINDS = ("af", "arg-iaf", "dep-arg-iaf", "rul-isaf", "prem-isaf", "saf")


@dataclass
class RuleSpec:
    body: list[str]
    head: str
    kind: str
    status: str = "fixed"
    name: str | None = None


@dataclass
class TheoryDocument:
    contraries: list[tuple[str, str]] = field(default_factory=list)
    close_negation: bool = False
    rules: list[RuleSpec] = field(default_factory=list)
    axioms_fixed: list[str] = field(default_factory=list)
    axioms_uncertain: list[str] = field(default_factory=list)
    premises_fixed: list[str] = field(default_factory=list)
    premises_uncertain: list[str] = field(default_factory=list)
    preferences: list[tuple[str, str]] = field(default_factory=list)
    formulas: list[str] = field(default_factory=list)

    @property
    def has_rule_uncertainty(self) -> bool:
        return any(spec.status == "uncertain" for spec in self.rules)

    @property
    def has_premise_uncertainty(self) -> bool:
        return bool(self.axioms_uncertain or self.premises_uncertain)


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

    doc = TheoryDocument()
    doc.close_negation = obj.get("close_negation", False)
    _require(isinstance(doc.close_negation, bool),
             "close_negation must be true or false")
    doc.formulas = _str_list(obj.get("formulas", []), "formulas")
    doc.contraries = _pairs(obj.get("contraries", []), "contraries",
                            "[phi, psi]")
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
        doc.rules.append(RuleSpec(
            body=_str_list(entry.get("body", []), "rule body"),
            head=head,
            kind=kind,
            status=status,
            name=name,
        ))
    kb = obj.get("kb", {})
    _require(isinstance(kb, dict), "kb must be an object")
    doc.axioms_fixed = _str_list(kb.get("axioms_fixed", []), "kb.axioms_fixed")
    doc.axioms_uncertain = _str_list(kb.get("axioms_uncertain", []),
                                     "kb.axioms_uncertain")
    doc.premises_fixed = _str_list(kb.get("premises_fixed", []),
                                   "kb.premises_fixed")
    doc.premises_uncertain = _str_list(kb.get("premises_uncertain", []),
                                       "kb.premises_uncertain")
    doc.preferences = _pairs(obj.get("preferences", []), "preferences",
                             "[a, b]")

    mentioned = set(doc.formulas)
    mentioned.update(doc.axioms_fixed + doc.axioms_uncertain)
    mentioned.update(doc.premises_fixed + doc.premises_uncertain)
    for spec in doc.rules:
        mentioned.add(spec.head)
        mentioned.update(spec.body)
        if spec.name is not None:
            mentioned.add(spec.name)
    for phi, psi in doc.contraries:
        mentioned.update((phi, psi))
    for phi in sorted(mentioned):
        _require(is_valid_formula(phi), f"invalid formula token: {phi!r}")
    return doc


def _theory_of(doc: TheoryDocument):
    rules: list[Rule] = []
    naming: dict[Rule, str] = {}
    uncertain: set[Rule] = set()
    for spec in doc.rules:
        rule = Rule(spec.body, spec.head, spec.kind)
        rules.append(rule)
        if spec.name is not None:
            naming[rule] = spec.name
        if spec.status == "uncertain":
            uncertain.add(rule)
    theory = make_theory(
        contraries=doc.contraries,
        rules=rules,
        naming=naming,
        axioms=doc.axioms_fixed + doc.axioms_uncertain,
        premises=doc.premises_fixed + doc.premises_uncertain,
        formulas=doc.formulas,
        close_negation=doc.close_negation,
    )
    return theory, frozenset(uncertain)


def build_saf(doc: TheoryDocument) -> SAF:
    if doc.has_rule_uncertainty or doc.has_premise_uncertainty:
        raise MixedUncertaintyError(
            "document declares uncertainty; load it as rul-isaf or prem-isaf")
    theory, _ = _theory_of(doc)
    return SAF(theory, frozenset(doc.preferences))


def build_rul_isaf(doc: TheoryDocument) -> RulISAF:
    if doc.has_premise_uncertainty:
        raise MixedUncertaintyError(
            "rule-incomplete documents may not declare uncertain knowledge")
    theory, uncertain = _theory_of(doc)
    return RulISAF(theory, uncertain, frozenset(doc.preferences))


def build_prem_isaf(doc: TheoryDocument) -> PremISAF:
    if doc.has_rule_uncertainty:
        raise MixedUncertaintyError(
            "premise-incomplete documents may not declare uncertain rules")
    theory, _ = _theory_of(doc)
    return PremISAF(
        theory,
        uncertain_axioms=frozenset(doc.axioms_uncertain),
        uncertain_premises=frozenset(doc.premises_uncertain),
        preferences=frozenset(doc.preferences),
    )


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

    The column of a graph line holds one byte per member: 1 where the
    member holds that argument or defeat, else 0.  The lines go eight at
    a time; their columns, shifted by 0 to 7 and ORed, give each member a
    byte whose bits pick its lines of the run, and a table of the joins
    of every subset of those lines turns that byte into its text."""
    graph, keys = completions._graph, completions._member_keys()
    args, defeats = graph.args, graph.defeats
    lines = [f"arg({a}).\n" for a in args]
    lines += [f"att({s},{t}).\n" for s, t in defeats]
    pending = iter(_entry_columns(graph, keys))
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
