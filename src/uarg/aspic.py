"""Structured argumentation core: argumentation theories, inductive
argument generation, attacks, preference-filtered defeats, and the lifting
of a structured framework to its abstract defeat graph.

Canonical argument serialization (injective and APX-safe):

* a premise argument is its formula token;
* an inference argument is ``[`` + sub-argument serializations joined by
  ``;`` in sorted order + ``]`` + ``=s>`` or ``=d>`` + head token.

Sub-arguments are compared as sets, so the sorted form is canonical.  The
delimiters ``[ ] ;`` are excluded from formula tokens, which keeps the
serialization injective and lets serialized arguments double as abstract
argument identifiers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping

from .config import DEFAULT_LIMITS, Limits
from .core import AbstractAF, _trusted
from .errors import (
    ArgumentNotOfTheoryError,
    GenerationLimitExceededError,
    InvalidTheoryError,
    PreferenceUnknownArgumentError,
)

STRICT = "strict"
DEFEASIBLE = "defeasible"

UNDERMINE = "undermine"
REBUT = "rebut"
UNDERCUT = "undercut"

# In a str pattern \s matches exactly the characters str.isspace() accepts.
_FORBIDDEN_FORMULA_CHAR = re.compile(r"[\s(),.\[\];]")


def is_valid_formula(token: str) -> bool:
    if not isinstance(token, str) or not token or not token.isprintable():
        return False
    return _FORBIDDEN_FORMULA_CHAR.search(token) is None


def _formula_order(phi: object) -> tuple[bool, str]:
    """Sort key for possibly malformed formulas: strings in their own order,
    then anything else by its text, so that naming the least offending
    formula never compares a str with another type and does not depend on
    the hash seed."""
    return not isinstance(phi, str), str(phi)


def negate(token: str) -> str:
    """Classical-negation convention on tokens: a leading ~ is negation."""
    return token[1:] if token.startswith("~") else "~" + token


@dataclass(frozen=True)
class Rule:
    body: frozenset[str]
    head: str
    kind: str

    def __init__(self, body: Iterable[str], head: str, kind: str):
        if kind not in (STRICT, DEFEASIBLE):
            raise ValueError(f"rule kind must be strict or defeasible: {kind!r}")
        body = frozenset(body)
        stray = [phi for phi in (head, *body) if not isinstance(phi, str)]
        if stray:
            raise InvalidTheoryError(
                f"rule formulas must be strings: "
                f"{min(stray, key=_formula_order)!r}")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "kind", kind)

    @property
    def is_strict(self) -> bool:
        return self.kind == STRICT

    def sort_key(self) -> tuple:
        return (self.kind, self.head, tuple(sorted(self.body)))

    def __repr__(self) -> str:
        arrow = "=s>" if self.is_strict else "=d>"
        return f"[{';'.join(sorted(self.body))}]{arrow}{self.head}"


@dataclass(frozen=True, eq=True)
class ArgumentationTheory:
    """Language, contrariness, rules, rule naming, and the split knowledge
    base (axioms are not underminable; ordinary premises are).  Validated
    when built, also by ``dataclasses.replace``; ``_canonical`` builds one
    unchecked, for theories valid by construction."""

    formulas: frozenset[str]
    contraries: frozenset[tuple[str, str]]  # (phi, psi): phi in contrary-set of psi
    rules: frozenset[Rule]
    naming: Mapping[Rule, str]
    axioms: frozenset[str]
    premises: frozenset[str]

    def __post_init__(self):
        validate_theory(self)

    _canonical = classmethod(_trusted)

    @property
    def knowledge_base(self) -> frozenset[str]:
        return self.axioms | self.premises

    def contrary_sets(self) -> dict[str, frozenset[str]]:
        """Map each formula to its contrary-set {phi : phi contrary of it}."""
        out: dict[str, set[str]] = {}
        for phi, psi in self.contraries:
            out.setdefault(psi, set()).add(phi)
        return {k: frozenset(v) for k, v in out.items()}

    @cached_property
    def _contrary_map(self) -> dict[str, frozenset[str]]:
        """contrary_sets(), built once: the theory is frozen, and
        ``dataclasses.replace`` makes a new instance with no cache."""
        return self.contrary_sets()


def make_theory(contraries: Iterable[tuple[str, str]] = (),
                rules: Iterable[Rule] = (),
                naming: Mapping[Rule, str] | None = None,
                axioms: Iterable[str] = (),
                premises: Iterable[str] = (),
                formulas: Iterable[str] = (),
                close_negation: bool = False) -> ArgumentationTheory:
    """Assemble a theory, inferring the language from everything referenced.
    close_negation adds the classical contradictory pair (phi,~phi) for each
    formula, extending the language with the missing negations."""
    naming = dict(naming or {})
    rules = frozenset(rules)
    contraries = set(contraries)
    referenced: set[str] = set(formulas)
    referenced.update(axioms)
    referenced.update(premises)
    referenced.update(naming.values())
    for rule in rules:
        referenced.add(rule.head)
        referenced.update(rule.body)
    for phi, psi in contraries:
        referenced.update((phi, psi))
    if close_negation:
        # a non-string formula has no negation; validation names it below
        for phi in [phi for phi in referenced if isinstance(phi, str)]:
            referenced.add(negate(phi))
            contraries.add((phi, negate(phi)))
            contraries.add((negate(phi), phi))
    return ArgumentationTheory(
        formulas=frozenset(referenced),
        contraries=frozenset(contraries),
        rules=rules,
        naming=naming,
        axioms=frozenset(axioms),
        premises=frozenset(premises),
    )


def validate_theory(theory: ArgumentationTheory) -> None:
    """Raise InvalidTheoryError, naming the smallest offending formula."""
    bad = [phi for phi in theory.formulas if not is_valid_formula(phi)]
    if bad:
        raise InvalidTheoryError(
            f"invalid formula token: {min(bad, key=_formula_order)!r}")
    overlap = theory.axioms & theory.premises
    if overlap:
        raise InvalidTheoryError(
            f"formulas cannot be both axiom and ordinary premise: "
            f"{sorted(overlap, key=_formula_order)}")
    referenced = set(theory.axioms) | set(theory.premises)
    for rule in theory.rules:
        referenced.add(rule.head)
        referenced.update(rule.body)
    for rule, name in theory.naming.items():
        if rule not in theory.rules or rule.is_strict:
            raise InvalidTheoryError(
                f"naming is only defined for defeasible rules of the theory: "
                f"{rule!r}")
        referenced.add(name)
    for phi, psi in theory.contraries:
        referenced.update((phi, psi))
    stray = referenced - theory.formulas
    if stray:
        raise InvalidTheoryError(
            "formulas referenced but not in the language: "
            f"{sorted(stray, key=_formula_order)}")
    pairs = theory.contraries
    lacking = theory.formulas.difference(
        phi for phi, psi in pairs if (psi, phi) in pairs)
    if lacking:
        raise InvalidTheoryError(
            f"formula {min(lacking)!r} has no contradictory; add contrary "
            "pairs or enable close_negation")


_EMPTY: frozenset = frozenset()


class StructuredArgument:
    """Finite inference tree: a premise leaf or an inference node applying
    a rule to one sub-argument per body formula.  Its premises, the rules
    it uses and its strict sub-argument closure ``below`` (every
    sub-argument but itself) are the unions of its sub-arguments' own,
    stored when it is built; no argument holds itself, so an argument and
    its sets form no reference cycle.  Sub(A), ``sub_arguments``, is
    ``below`` with the argument added."""

    __slots__ = ("premise", "rule", "subs", "text", "conc", "height",
                 "premises", "below", "rules_used")

    def __init__(self, premise: str | None, rule: Rule | None,
                 subs: tuple["StructuredArgument", ...]):
        self.premise = premise
        self.rule = rule
        self.subs = subs
        if premise is not None:
            self.text = premise
            self.conc = premise
            self.height = 1
            self.premises = frozenset((premise,))
            self.below = self.rules_used = _EMPTY
            return
        inner = ";".join(sub.text for sub in subs)
        arrow = "=s>" if rule.is_strict else "=d>"
        self.text = f"[{inner}]{arrow}{rule.head}"
        self.conc = rule.head
        if not subs:
            self.height = 1
            self.premises = self.below = _EMPTY
            self.rules_used = frozenset((rule,))
            return
        self.height = 1 + max(sub.height for sub in subs)
        self.premises = frozenset().union(*[sub.premises for sub in subs])
        self.below = frozenset(subs).union(*[sub.below for sub in subs])
        self.rules_used = frozenset((rule,)).union(
            *[sub.rules_used for sub in subs])

    @property
    def sub_arguments(self) -> frozenset["StructuredArgument"]:
        """Sub(A): the argument and every sub-argument below it."""
        return self.below | {self}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructuredArgument) and self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def __lt__(self, other: "StructuredArgument") -> bool:
        return self.text < other.text

    def __repr__(self) -> str:
        return self.text


def premise_argument(formula: str) -> StructuredArgument:
    return StructuredArgument(formula, None, ())


def inference_argument(rule: Rule,
                       subs: Iterable[StructuredArgument]) -> StructuredArgument:
    subs = tuple(sorted(subs, key=lambda a: a.text))
    concs = {sub.conc for sub in subs}
    if concs != rule.body or len(subs) != len(rule.body):
        raise ValueError(
            f"sub-argument conclusions {sorted(concs)} do not fit rule body "
            f"{sorted(rule.body)}")
    return StructuredArgument(None, rule, subs)


def generate_arguments(theory: ArgumentationTheory,
                       limits: Limits = DEFAULT_LIMITS,
                       ) -> tuple[StructuredArgument, ...]:
    """Least fixpoint of the formation clauses, sorted by serialization.

    Inference nodes take exactly one sub-argument per body formula.  Hitting
    max_arguments or max_depth raises: a silently truncated argument set
    would corrupt every completion-level result downstream.
    """
    known: dict[str, StructuredArgument] = {}
    by_conc: dict[str, list[StructuredArgument]] = {}

    def add(arg: StructuredArgument) -> bool:
        if arg.text in known:
            return False
        if arg.height > limits.max_depth:
            raise GenerationLimitExceededError(
                f"argument height exceeds max_depth={limits.max_depth}: the "
                "rule set admits unboundedly deep arguments; raise it with "
                "--max-depth or UARG_MAX_DEPTH")
        known[arg.text] = arg
        by_conc.setdefault(arg.conc, []).append(arg)
        if len(known) > limits.max_arguments:
            raise GenerationLimitExceededError(
                f"more than max_arguments={limits.max_arguments} arguments; "
                "raise it with --max-arguments or UARG_MAX_ARGUMENTS")
        return True

    new_round: list[StructuredArgument] = []
    for phi in sorted(theory.knowledge_base):
        arg = premise_argument(phi)
        if add(arg):
            new_round.append(arg)
    rules = sorted(theory.rules, key=Rule.sort_key)
    for rule in rules:
        if not rule.body:
            arg = StructuredArgument(None, rule, ())
            if add(arg):
                new_round.append(arg)
    body_rules = [(rule, sorted(rule.body)) for rule in rules if rule.body]
    while new_round:
        fresh = {arg.text for arg in new_round}
        new_round = []
        for rule, body in body_rules:
            provers = [by_conc.get(phi) for phi in body]
            if not all(provers):
                continue
            # product copies each pool before it yields, so the arguments
            # added below join the next round, not this one
            for combo in product(*provers):
                if not any(sub.text in fresh for sub in combo):
                    continue
                arg = StructuredArgument(
                    None, rule, tuple(sorted(combo, key=lambda a: a.text)))
                if add(arg):
                    new_round.append(arg)
    return tuple(known[text] for text in sorted(known))


@dataclass(frozen=True)
class AttackInstance:
    attacker: StructuredArgument
    attacked: StructuredArgument
    kind: str
    locus: StructuredArgument


def _argument_of_theory(theory: ArgumentationTheory,
                        argument: StructuredArgument) -> bool:
    return (argument.premises <= theory.knowledge_base
            and argument.rules_used <= theory.rules)


def _check_of_theory(theory: ArgumentationTheory,
                     argument: StructuredArgument) -> None:
    if not _argument_of_theory(theory, argument):
        raise ArgumentNotOfTheoryError(
            f"argument {argument.text} is not generated by the theory")


def _vulnerable_loci(theory: ArgumentationTheory,
                     attacked: StructuredArgument,
                     ) -> list[tuple[str, StructuredArgument, str]]:
    """(kind, locus, guarded formula) triples, in no particular order: the
    points where the argument can be attacked and the formula whose
    contrary-set matters there."""
    loci = []
    for part in (attacked, *attacked.below):
        if part.premise is not None:
            if part.premise in theory.premises:
                loci.append((UNDERMINE, part, part.premise))
        elif not part.rule.is_strict:
            loci.append((REBUT, part, part.conc))
            name = theory.naming.get(part.rule)
            if name is not None:
                loci.append((UNDERCUT, part, name))
    return loci


def attacks(theory: ArgumentationTheory, attacker: StructuredArgument,
            attacked: StructuredArgument) -> frozenset[AttackInstance]:
    """All attack instances from attacker onto attacked, with their loci."""
    _check_of_theory(theory, attacker)
    _check_of_theory(theory, attacked)
    contrary = theory._contrary_map
    out = []
    for kind, locus, guard in _vulnerable_loci(theory, attacked):
        if attacker.conc in contrary.get(guard, ()):
            out.append(AttackInstance(attacker, attacked, kind, locus))
    return frozenset(out)


@dataclass(frozen=True, eq=True)
class SAF:
    """Structured argumentation framework: a theory plus a preference
    preorder given as pairs of canonical serializations (a, b) meaning
    a is at most as preferred as b."""

    theory: ArgumentationTheory
    preferences: frozenset[tuple[str, str]] = field(default_factory=frozenset)


def defeats(saf: SAF, arguments: tuple[StructuredArgument, ...] | None = None,
            limits: Limits = DEFAULT_LIMITS,
            ) -> frozenset[tuple[StructuredArgument, StructuredArgument]]:
    """Defeat pairs: undercuts always defeat; undermining and rebutting
    defeat unless the attacker is strictly less preferred than the locus."""
    theory = saf.theory
    if arguments is None:
        arguments = generate_arguments(theory, limits)
    contrary = theory._contrary_map
    by_conc: dict[str, list[StructuredArgument]] = {}
    for arg in arguments:
        by_conc.setdefault(arg.conc, []).append(arg)
    attackers: dict[str, list[StructuredArgument]] = {}

    def attackers_of(guard: str) -> list[StructuredArgument]:
        """The arguments concluding a contrary of ``guard``, found once
        per guard."""
        out = attackers.get(guard)
        if out is None:
            out = attackers[guard] = [
                arg for phi in contrary.get(guard, ())
                for arg in by_conc.get(phi, ())]
        return out

    pref = saf.preferences
    if not pref:  # every attack defeats
        return frozenset({
            (attacker, attacked) for attacked in arguments
            for _, _, guard in _vulnerable_loci(theory, attacked)
            for attacker in attackers_of(guard)})
    texts = {arg.text for arg in arguments}
    missing = {name for a, b in pref for name in (a, b) if name not in texts}
    if missing:
        raise PreferenceUnknownArgumentError(
            "preference names an argument the theory does not generate: "
            f"{min(missing, key=_formula_order)!r}")

    def strictly_less(a: str, b: str) -> bool:
        return (a, b) in pref and (b, a) not in pref

    result = set()
    for attacked in arguments:
        for kind, locus, guard in _vulnerable_loci(theory, attacked):
            for attacker in attackers_of(guard):
                if kind == UNDERCUT or not strictly_less(attacker.text,
                                                         locus.text):
                    result.add((attacker, attacked))
    return frozenset(result)


def associated_af(saf: SAF,
                  arguments: tuple[StructuredArgument, ...] | None = None,
                  limits: Limits = DEFAULT_LIMITS):
    """Abstract framework over canonical serializations of the generated
    arguments, with the defeat relation as edges."""
    if arguments is None:
        arguments = generate_arguments(saf.theory, limits)
    pairs = defeats(saf, arguments, limits)
    return AbstractAF((arg.text for arg in arguments),
                      ((a.text, b.text) for a, b in pairs))


def _generated_af(saf: SAF, arguments: tuple[StructuredArgument, ...]):
    """associated_af for the arguments ``generate_arguments`` returned for
    the validated ``saf.theory``: their texts are valid identifiers, sorted
    and distinct, so the graph is built canonical without re-checking."""
    pairs = defeats(saf, arguments)
    return AbstractAF._canonical(
        tuple(arg.text for arg in arguments),
        tuple(sorted((a.text, b.text) for a, b in pairs)))
