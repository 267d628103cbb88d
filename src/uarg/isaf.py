"""Rule-incomplete and premise-incomplete structured frameworks.

A rule-incomplete framework fixes the knowledge base and leaves a subset of
rules uncertain; a premise-incomplete framework does the opposite.  Each
subset of the uncertain part induces a completion (a plain structured
framework); lifting every completion to its abstract defeat graph and
deduplicating yields the completion set all expressivity comparisons run on.
No completion is regenerated: arguments are closed under sub-arguments, so
a completion's arguments are the maximal completion's arguments whose
uncertain load the subset contains, and its defeat graph is the maximal
one restricted to them.

The framework's load model (``_model``) is the maximal completion, its
arguments, the sorted uncertain elements, and the completion model that
every kind completes from (``incomplete._Model``: the defeat graph and
every argument's load).  It is compiled once per framework and ``limits``
and kept in the framework's own ``__dict__``, out of ``==``, ``repr`` and
``dataclasses.replace``.  Every function here that completes a framework
reads it (the completion sets, ``rule_completions``/
``premise_completions``, ``saf_max``, ``saf_fixed`` and
``defeat_coherence_check``), as do the implicative abstraction and
tidying in ``translate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple

from .aspic import (
    SAF,
    ArgumentationTheory,
    Rule,
    StructuredArgument,
    _check_of_theory,
    _generated_af,
    associated_af,
    generate_arguments,
)
from .config import DEFAULT_LIMITS, Limits
from .core import AbstractAF
from .errors import InvalidTheoryError
from .incomplete import (
    ArgIAF,
    CompletionSet,
    DepArgIAF,
    _complete,
    _masks,
    _Model,
    completions_arg_iaf,
    completions_dep,
)


@dataclass(frozen=True)
class RulISAF:
    """Structured framework whose rule set splits into certain and
    uncertain parts; theory.rules holds the union."""

    theory: ArgumentationTheory
    uncertain_rules: frozenset[Rule]
    preferences: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        stray = self.uncertain_rules - self.theory.rules
        if stray:
            raise InvalidTheoryError(
                f"uncertain rules not in the rule set: {sorted(map(repr, stray))}")

    @property
    def fixed_rules(self) -> frozenset[Rule]:
        return self.theory.rules - self.uncertain_rules


@dataclass(frozen=True)
class PremISAF:
    """Structured framework whose knowledge base splits into certain and
    uncertain parts; axiom/ordinary status is fixed metadata."""

    theory: ArgumentationTheory
    uncertain_axioms: frozenset[str] = field(default_factory=frozenset)
    uncertain_premises: frozenset[str] = field(default_factory=frozenset)
    preferences: frozenset[tuple[str, str]] = field(default_factory=frozenset)

    def __post_init__(self):
        stray = (self.uncertain_axioms - self.theory.axioms) | (
            self.uncertain_premises - self.theory.premises)
        if stray:
            raise InvalidTheoryError(
                f"uncertain knowledge not in the knowledge base: {sorted(stray)}")

    @property
    def fixed_axioms(self) -> frozenset[str]:
        return self.theory.axioms - self.uncertain_axioms

    @property
    def fixed_premises(self) -> frozenset[str]:
        return self.theory.premises - self.uncertain_premises

    @property
    def uncertain_knowledge(self) -> frozenset[str]:
        return self.uncertain_axioms | self.uncertain_premises


def _load(x: RulISAF | PremISAF, argument: StructuredArgument) -> frozenset:
    """The uncertain rules or premises the argument uses."""
    if isinstance(x, RulISAF):
        return argument.rules_used & x.uncertain_rules
    return argument.premises & x.uncertain_knowledge


class _LoadModel(NamedTuple):
    """The maximal completion, its generated arguments, the sorted
    uncertain elements, and the ``record``: its defeat graph and each
    argument's load, a mask over the elements it uses.  Preferences
    compare only an attacker and a locus, so restricting the graph to the
    arguments whose load lies in m yields the completion for m."""

    saf: SAF
    arguments: tuple[StructuredArgument, ...]
    elements: tuple
    record: _Model


def _model(x: RulISAF | PremISAF, limits: Limits) -> _LoadModel:
    """The load model of x under limits, built on the first call.  Every
    declared preference must name an argument of the maximal completion.
    A build that raises stores nothing, so it raises again on every call;
    concurrent first calls may each build one, and the last one stored
    wins (they are equal)."""
    models = x.__dict__.setdefault("_models", {})
    model = models.get(limits)
    if model is None:
        saf = SAF(x.theory, x.preferences)
        arguments = generate_arguments(x.theory, limits)
        graph = _generated_af(saf, arguments)  # checks the preferences
        elements = tuple(sorted(x.uncertain_rules, key=Rule.sort_key)
                         if isinstance(x, RulISAF)
                         else sorted(x.uncertain_knowledge))
        bit = {e: 1 << i for i, e in enumerate(elements)}
        load = {arg.text: sum(bit[e] for e in _load(x, arg))
                for arg in arguments}
        model = models[limits] = _LoadModel(
            saf, arguments, elements, _Model(graph, load, len(elements)))
    return model


def saf_max(x: RulISAF | PremISAF, limits: Limits = DEFAULT_LIMITS) -> SAF:
    """Maximal completion: all uncertain rules/premises accepted."""
    return _model(x, limits).saf


def _completion(x: RulISAF | PremISAF, model: _LoadModel, mask: int,
                ) -> tuple[SAF, tuple[StructuredArgument, ...]]:
    """The completion of x that keeps the uncertain elements in mask, and
    its arguments: the maximal completion's arguments whose load mask
    holds, since arguments are closed under sub-arguments.  Naming is
    restricted to the kept rules and preferences to those arguments."""
    load = model.record.load
    arguments = tuple(arg for arg in model.arguments
                      if not load[arg.text] & ~mask)
    texts = {arg.text for arg in arguments}
    preferences = frozenset((a, b) for a, b in x.preferences
                            if a in texts and b in texts)
    chosen = frozenset(e for i, e in enumerate(model.elements)
                       if mask >> i & 1)
    if isinstance(x, RulISAF):
        rules = x.fixed_rules | chosen
        naming = {rule: name for rule, name in x.theory.naming.items()
                  if rule in rules}
        theory = replace(x.theory, rules=rules, naming=naming)
    else:
        # The naming function stays untouched for premise-completions.
        theory = replace(
            x.theory, axioms=x.fixed_axioms | (chosen & x.uncertain_axioms),
            premises=x.fixed_premises | (chosen & x.uncertain_premises))
    return SAF(theory, preferences), arguments


def _completion_items(x: RulISAF | PremISAF, limits: Limits,
                      ) -> list[tuple[SAF, tuple[StructuredArgument, ...]]]:
    """One (completion, arguments) pair per uncertainty subset, in
    subset-mask order, each read from the load model."""
    model = _model(x, limits)
    return [_completion(x, model, mask)
            for mask in _masks(model.record, limits)]


def rule_completions(r: RulISAF, limits: Limits = DEFAULT_LIMITS) -> tuple[SAF, ...]:
    """All 2^|uncertain rules| completions, with naming restricted to the
    surviving rules and preferences to the generated arguments."""
    return tuple(saf for saf, _ in _completion_items(r, limits))


def premise_completions(p: PremISAF,
                        limits: Limits = DEFAULT_LIMITS) -> tuple[SAF, ...]:
    """One completion per pair of subsets of the uncertain axioms and the
    uncertain ordinary premises (status is preserved)."""
    return tuple(saf for saf, _ in _completion_items(p, limits))


def saf_fixed(x: RulISAF | PremISAF, limits: Limits = DEFAULT_LIMITS) -> SAF:
    """Minimal completion: all uncertainty discarded.  It reads the load
    model, so it raises what ``saf_max`` raises."""
    return _completion(x, _model(x, limits), 0)[0]


def completions_rul(r: RulISAF, limits: Limits = DEFAULT_LIMITS) -> CompletionSet:
    """Abstract completion set; distinct rule subsets may induce the same
    graph, so the set can be smaller than 2^|uncertain rules|."""
    return _complete(_model(r, limits).record, limits)


def completions_prem(p: PremISAF,
                     limits: Limits = DEFAULT_LIMITS) -> CompletionSet:
    return _complete(_model(p, limits).record, limits)


def _group_load(x: RulISAF | PremISAF,
                group: StructuredArgument | Iterable[StructuredArgument],
                ) -> frozenset:
    arguments = (group,) if isinstance(group, StructuredArgument) else group
    out: set = set()
    for argument in arguments:
        _check_of_theory(x.theory, argument)
        out.update(_load(x, argument))
    return frozenset(out)


def uncertain_rules_of(r: RulISAF,
                       x: StructuredArgument | Iterable[StructuredArgument],
                       ) -> frozenset[Rule]:
    """Uncertain rules occurring in the argument (or in any argument of the
    group)."""
    return _group_load(r, x)


def uncertain_premises_of(p: PremISAF,
                          x: StructuredArgument | Iterable[StructuredArgument],
                          ) -> frozenset[str]:
    """Uncertain knowledge-base formulas among the argument's premises."""
    return _group_load(p, x)


def is_tidy(p: PremISAF) -> bool:
    """No formula is both in the knowledge base and the head of a rule with
    an empty body."""
    premiseless_heads = {rule.head for rule in p.theory.rules if not rule.body}
    return not (p.theory.knowledge_base & premiseless_heads)


def defeat_coherence_check(x: RulISAF | PremISAF,
                           limits: Limits = DEFAULT_LIMITS) -> bool:
    """Any two completions agree on defeats between shared arguments.

    The maximal completion is one of the completions, so this holds iff
    each completion's own defeats, computed from its theory and restricted
    preferences, are the maximal defeat graph's between its arguments: one
    check per completion.  It always holds for valid frameworks; the
    operation exists as an executable oracle for that claim.
    """
    graph = _model(x, limits).record.graph
    for saf, arguments in _completion_items(x, limits):
        texts = {arg.text for arg in arguments}
        shared = tuple(d for d in graph.defeats
                       if d[0] in texts and d[1] in texts)
        if _generated_af(saf, arguments).defeats != shared:
            return False
    return True


def completion_set_of(framework, limits: Limits = DEFAULT_LIMITS) -> CompletionSet:
    """Completion set of any supported framework kind."""
    if isinstance(framework, AbstractAF):
        return CompletionSet([framework])
    if isinstance(framework, ArgIAF):
        return completions_arg_iaf(framework, limits)
    if isinstance(framework, DepArgIAF):
        return completions_dep(framework, limits)
    if isinstance(framework, RulISAF):
        return completions_rul(framework, limits)
    if isinstance(framework, PremISAF):
        return completions_prem(framework, limits)
    if isinstance(framework, SAF):
        return CompletionSet([associated_af(framework, limits=limits)])
    raise TypeError(f"unsupported framework type: {type(framework).__name__}")
