"""Constructive translations between the uncertainty formalisms.

Each translation returns the target framework together with an explicit
witness: the bijection between the argument universes of the two completion
sets that certifies their equivalence.  Witnesses are materialized tables,
so certification is replayable without re-running the construction.

The two encodings of an argument-incomplete framework build their theory
unchecked: ``_formula_names`` makes every argument's token, and its
negation, a valid formula, and the rest of the theory's validity follows
from its construction.  Every other theory built here is validated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import Iterable, Mapping

from .aspic import (
    DEFEASIBLE,
    STRICT,
    ArgumentationTheory,
    Rule,
    StructuredArgument,
    inference_argument,
    is_valid_formula,
)
from .config import DEFAULT_LIMITS, Limits
from .core import AbstractAF, check_argument_id
from .errors import InvalidTheoryError
from .incomplete import ArgIAF, CompletionSet, DepArgIAF, ImplyDisj
from .isaf import PremISAF, RulISAF, _model, is_tidy

PRIME_SUFFIX = "'"


@dataclass(frozen=True)
class Witness:
    """Bijection between two finite argument-identifier sets, stored as
    sorted (source, target) pairs."""

    pairs: tuple[tuple[str, str], ...]

    def __init__(self, mapping: Mapping[str, str] | Iterable[tuple[str, str]]):
        items = sorted(mapping.items() if isinstance(mapping, Mapping)
                       else mapping)
        seen = set()
        for src, _ in items:
            if src in seen:
                raise ValueError(f"witness maps {src!r} twice")
            seen.add(src)
        object.__setattr__(self, "pairs", tuple(items))

    @classmethod
    def identity(cls, names: Iterable[str]) -> "Witness":
        return cls({name: name for name in names})

    @property
    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(src for src, _ in self.pairs)

    @property
    def codomain(self) -> frozenset[str]:
        return frozenset(dst for _, dst in self.pairs)

    @property
    def is_bijective(self) -> bool:
        return len(self.codomain) == len(self.pairs)

    def invert(self) -> "Witness":
        if not self.is_bijective:
            raise ValueError("witness is not injective; cannot invert")
        return Witness({dst: src for src, dst in self.pairs})

    def compose(self, then: "Witness") -> "Witness":
        """First apply self, then ``then`` (domains must chain)."""
        second = then.mapping
        return Witness({src: second[mid] for src, mid in self.pairs})

    def apply(self, completions: CompletionSet) -> CompletionSet:
        """Image of every member.  The image of each argument in use is
        checked once; one outside the domain raises KeyError.  A
        non-injective witness merges arguments and defeats."""
        m = self.mapping
        for name in sorted({a for af in completions for a in af.args}):
            check_argument_id(m[name])
        return CompletionSet(
            AbstractAF._canonical(
                tuple(sorted({m[a] for a in af.args})),
                tuple(sorted({(m[s], m[t]) for s, t in af.defeats})))
            for af in completions)

    def to_json(self) -> dict:
        return {"map": [list(pair) for pair in self.pairs]}

    @classmethod
    def from_json(cls, obj: dict) -> "Witness":
        return cls([(src, dst) for src, dst in obj["map"]])


def _formula_names(names: Iterable[str]) -> dict[str, str]:
    """Deterministic argument-name -> formula-token map: p_<name> when every
    name is a valid formula token, positional p<i> otherwise."""
    ordered = sorted(names)
    if all(is_valid_formula(name) for name in ordered):
        return {name: f"p_{name}" for name in ordered}
    return {name: f"p{i}" for i, name in enumerate(ordered)}


def _encoded_theory(token: dict[str, str],
                    defeats: Iterable[tuple[str, str]],
                    rules: frozenset[Rule] = frozenset(),
                    premises: Iterable[str] = ()) -> ArgumentationTheory:
    """The theory of an arg-IAF encoding, ``token`` naming each argument's
    formula.  Each token and its negation ~token form the language and
    contradict each other, which keeps every formula contradicted, and
    token(s) is a contrary of token(t) iff s defeats t, which encodes the
    graph.

    It is built trusted, with its contrary sets cached: ``_formula_names``
    makes every token and its negation a valid formula, and the rule heads
    and premises are tokens."""
    contrary = {}
    for phi in token.values():
        contrary[phi] = {"~" + phi}
        contrary["~" + phi] = {phi}
    for s, t in defeats:
        contrary[token[t]].add(token[s])
    theory = ArgumentationTheory._canonical(
        frozenset(contrary),
        frozenset((phi, psi) for psi, phis in contrary.items()
                  for phi in phis),
        rules, {}, frozenset(), frozenset(premises))
    theory.__dict__["_contrary_map"] = {
        psi: frozenset(phis) for psi, phis in contrary.items()}
    return theory


def arg_iaf_to_rul_isaf(iaf: ArgIAF) -> tuple[RulISAF, Witness]:
    """Encode fixed arguments as ordinary premises and uncertain arguments
    as uncertain empty-bodied defeasible rules.  The theory is valid by
    construction (``_encoded_theory``), and the uncertain rules are its
    rules, so both are built unchecked."""
    names = iaf.all_args
    token = _formula_names(names)
    uncertain_rules = frozenset(Rule((), token[name], DEFEASIBLE)
                                for name in iaf.uncertain_args)
    theory = _encoded_theory(
        token, iaf.defeats, rules=uncertain_rules,
        premises=[token[name] for name in iaf.fixed_args])
    target = RulISAF._canonical(theory, uncertain_rules, frozenset())
    fixed = set(iaf.fixed_args)
    witness = Witness({
        name: token[name] if name in fixed else f"[]=d>{token[name]}"
        for name in names
    })
    return target, witness


def arg_iaf_to_prem_isaf(iaf: ArgIAF) -> tuple[PremISAF, Witness]:
    """Encode fixed arguments as certain and uncertain arguments as
    uncertain ordinary premises; no rules at all.  As for
    ``arg_iaf_to_rul_isaf``, the theory and the framework are built
    unchecked: every argument's token is a premise."""
    names = iaf.all_args
    token = _formula_names(names)
    theory = _encoded_theory(token, iaf.defeats,
                             premises=[token[name] for name in names])
    target = PremISAF._canonical(
        theory, frozenset(), frozenset(token[name]
                                       for name in iaf.uncertain_args),
        frozenset())
    witness = Witness({name: token[name] for name in names})
    return target, witness


def _minimal_covers(needed: int, profiles: list[tuple[str, int]],
                    ) -> list[frozenset[str]]:
    """All subset-minimal argument sets whose combined load masks cover
    ``needed``.  Arguments with the same needed-restricted profile are
    interchangeable, so covers are enumerated over profile classes and
    expanded over representatives."""
    groups: dict[int, list[str]] = {}
    for name, profile in profiles:
        mask = profile & needed
        if mask:
            groups.setdefault(mask, []).append(name)
    masks = sorted(groups)
    found: set[frozenset[int]] = set()
    stack: list[tuple[int, tuple[int, ...]]] = [(needed, ())]
    while stack:
        uncovered, chosen = stack.pop()
        if not uncovered:
            # keep only irredundant selections: every chosen class must
            # contribute a private element
            for mask in chosen:
                others = 0
                for other in chosen:
                    if other != mask:
                        others |= other
                if not mask & ~others:
                    break
            else:
                found.add(frozenset(chosen))
            continue
        pivot = uncovered & -uncovered
        stack += [(uncovered & ~mask, chosen + (mask,)) for mask in masks
                  if mask & pivot and mask not in chosen]
    covers: set[frozenset[str]] = set()
    for classes in found:
        pools = [groups[mask] for mask in sorted(classes)]
        for combo in product(*pools):
            covers.add(frozenset(combo))
    return sorted(covers, key=sorted)


def _implicative_dependencies(uncertain_ids: tuple[str, ...],
                              load: dict[str, int],
                              ) -> list[ImplyDisj]:
    """Dependencies forcing each uncertain argument whenever a set of
    arguments jointly carrying all of its uncertain load is present: one per
    subset-minimal antecedent, since supersets are semantically entailed.
    Every cover is a non-empty set of the given identifiers, so the
    dependencies are built unchecked."""
    deps: list[ImplyDisj] = []
    for x in uncertain_ids:
        profiles = [(y, load[y]) for y in uncertain_ids if y != x]
        consequent = frozenset((x,))
        for cover in _minimal_covers(load[x], profiles):
            deps.append(ImplyDisj._canonical(cover, consequent))
    return deps


def _structured_to_imp_arg_iaf(x: RulISAF | PremISAF, limits: Limits,
                               ) -> tuple[DepArgIAF, Witness]:
    # The maximal graph comes from a validated theory: its argument and
    # defeat tuples are canonical, and so are their sub-sequences.
    record = _model(x, limits).record
    full_af, load = record.graph, record.load
    fixed_ids = tuple(a for a in full_af.args if not load[a])
    uncertain_ids = tuple(a for a in full_af.args if load[a])
    base = ArgIAF._canonical(fixed_ids, uncertain_ids, full_af.defeats)
    deps = _implicative_dependencies(uncertain_ids, load)
    return (DepArgIAF._canonical(base, frozenset(deps)),
            Witness.identity(full_af.args))


def rul_isaf_to_imp_arg_iaf(r: RulISAF, limits: Limits = DEFAULT_LIMITS,
                            ) -> tuple[DepArgIAF, Witness]:
    """Abstract the maximal completion; an argument is uncertain iff it uses
    an uncertain rule, and implicative dependencies tie each uncertain
    argument to the subset-minimal argument sets that jointly exhibit its
    uncertain rules."""
    return _structured_to_imp_arg_iaf(r, limits)


def prem_isaf_to_imp_arg_iaf(p: PremISAF, limits: Limits = DEFAULT_LIMITS,
                             ) -> tuple[DepArgIAF, Witness]:
    """Same construction with uncertain premises as the uncertain load."""
    return _structured_to_imp_arg_iaf(p, limits)


def _rewrite_leaves(arguments: Iterable[StructuredArgument],
                    leaves: Mapping[str, StructuredArgument],
                    ) -> dict[str, str]:
    """Each argument's text -> the text of its image: a leaf (a premise or
    an empty-bodied rule application) becomes its entry in ``leaves``, or
    stays when it has none, and every other rule application is rebuilt
    over its rewritten sub-arguments' conclusions.  Shared sub-arguments are
    rewritten once."""
    cache = dict(leaves)
    return {arg.text: _rewrite(arg, cache).text for arg in arguments}


def _rewrite(argument: StructuredArgument,
             cache: dict[str, StructuredArgument]) -> StructuredArgument:
    """The image of one argument under ``_rewrite_leaves``, with ``cache``
    mapping the texts of the arguments rewritten so far to their images."""
    out = cache.get(argument.text)
    if out is None:
        out = argument
        if argument.subs:
            subs = tuple(_rewrite(sub, cache) for sub in argument.subs)
            rule = Rule((sub.conc for sub in subs), argument.rule.head,
                        argument.rule.kind)
            out = inference_argument(rule, subs)
        cache[argument.text] = out
    return out


def _prime(formula: str) -> str:
    return formula + PRIME_SUFFIX


def _fact(head: str, kind: str) -> StructuredArgument:
    return StructuredArgument(None, Rule((), head, kind), ())


def _tidying(theory: ArgumentationTheory,
             ) -> tuple[ArgumentationTheory, dict[str, StructuredArgument]]:
    """The tidied theory, and the leaf map that renames into it.

    Every knowledge-base formula that heads a premiseless rule is renamed,
    in those rules, into a fresh primed copy of the language.  Every rule
    body containing clashing formulas gets patched variants (each clashing
    body formula independently primed or not): an argument may derive such
    a formula either from the premise or through the renamed empty-bodied
    rule, and both derivations must keep a rule to attach to.  The leaf map
    takes each clashing premiseless rule application to its primed one.  A
    tidy theory comes back unchanged, with an empty map.
    """
    rep = theory.knowledge_base.intersection(
        rule.head for rule in theory.rules if not rule.body)
    if not rep:
        return theory, {}

    primed_language = {_prime(phi) for phi in theory.formulas}
    clash = primed_language & theory.formulas
    if clash:
        raise InvalidTheoryError(
            f"priming is not fresh for this language: {sorted(clash)}")

    contraries = set(theory.contraries)
    for phi, psi in theory.contraries:
        contraries.add((phi, _prime(psi)))
        contraries.add((_prime(phi), psi))
        contraries.add((_prime(phi), _prime(psi)))

    def patched_variants(rule: Rule) -> list[Rule]:
        if not rule.body:
            return [Rule((), _prime(rule.head), rule.kind)
                    if rule.head in rep else rule]
        clashing = sorted(rule.body & rep)
        variants = []
        for size in range(len(clashing) + 1):
            for subset in combinations(clashing, size):
                body = (rule.body - set(subset)) | {_prime(phi)
                                                    for phi in subset}
                variants.append(Rule(body, rule.head, rule.kind))
        return variants

    new_rules: set[Rule] = set()
    naming: dict[Rule, str] = {}
    for rule in theory.rules:
        variants = patched_variants(rule)
        new_rules.update(variants)
        name = theory.naming.get(rule)
        if name is not None:
            for variant in variants:
                naming[variant] = name

    tidied = ArgumentationTheory(
        formulas=frozenset(theory.formulas | primed_language),
        contraries=frozenset(contraries),
        rules=frozenset(new_rules),
        naming=naming,
        axioms=theory.axioms,
        premises=theory.premises,
    )
    leaves = {_fact(rule.head, rule.kind).text:
              _fact(_prime(rule.head), rule.kind)
              for rule in theory.rules if not rule.body and rule.head in rep}
    return tidied, leaves


def tidy(p: PremISAF, limits: Limits = DEFAULT_LIMITS,
         ) -> tuple[PremISAF, Witness]:
    """Remove premise/premiseless-rule head clashes by renaming the clashing
    heads into a fresh primed copy of the language (see ``_tidying``).

    The witness is one rewrite of the maximal completion's arguments that
    primes the clashing premiseless rule applications.  Arguments are built
    inductively over rules, and each tidied rule renames a source rule, so
    the rewrite is a height-preserving bijection onto the tidied theory's
    arguments: they are never generated, and the preferences are the
    rewrite's image.  Already-tidy frameworks come back unchanged with an
    identity witness.  Tidy or not, every declared preference must name an
    argument of the maximal completion.
    """
    arguments = _model(p, limits).arguments
    theory, leaves = _tidying(p.theory)
    if not leaves:
        return p, Witness.identity(arg.text for arg in arguments)
    tau = _rewrite_leaves(arguments, leaves)
    result = PremISAF(theory, uncertain_axioms=p.uncertain_axioms,
                      uncertain_premises=p.uncertain_premises,
                      preferences=frozenset((tau[a], tau[b])
                                            for a, b in p.preferences))
    assert is_tidy(result)
    return result, Witness(tau)


def prem_isaf_to_rul_isaf(p: PremISAF, limits: Limits = DEFAULT_LIMITS,
                          ) -> tuple[RulISAF, Witness]:
    """Turn uncertain axioms/premises into uncertain empty-bodied strict/
    defeasible rules of the tidied theory; tidying is exactly what keeps
    the rewrite injective (a formula may not already be derivable by a
    premiseless rule).  Tidying and conversion are one rewrite, as in
    ``tidy``, whose leaf map also turns each uncertain premise into its
    rule's application: a height-preserving bijection onto the target
    theory's arguments, which are not generated here."""
    arguments = _model(p, limits).arguments
    theory, leaves = _tidying(p.theory)
    converted = {phi: _fact(phi, kind)
                 for knowledge, kind in ((p.uncertain_axioms, STRICT),
                                         (p.uncertain_premises, DEFEASIBLE))
                 for phi in knowledge}
    new_rules = frozenset(fact.rule for fact in converted.values())
    assert not new_rules & theory.rules, \
        "tidying must have removed premiseless clashes"

    target_theory = replace(theory, rules=theory.rules | new_rules,
                            axioms=p.fixed_axioms, premises=p.fixed_premises)
    tau = _rewrite_leaves(arguments, leaves | converted)
    target = RulISAF(target_theory, uncertain_rules=new_rules,
                     preferences=frozenset((tau[a], tau[b])
                                           for a, b in p.preferences))
    return target, Witness(tau)
