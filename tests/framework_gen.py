"""Seeded random instance generators for the combinatorial suites, the
fixed Nand-cut instances, a counter of the frameworks built, with a
guard that none is, and a guard that a block leaves no cyclic garbage.

Rule bodies only mention atoms strictly below the head atom in a fixed
layering, so argument generation always terminates; instances that still
blow past the generation limits are resampled.
"""

import gc
import random
from contextlib import contextmanager

import pytest

from uarg import (
    DEFEASIBLE,
    STRICT,
    AbstractAF,
    ArgIAF,
    DepArgIAF,
    Limits,
    Nand,
    PremISAF,
    Rule,
    RulISAF,
    generate_arguments,
    make_theory,
)
from uarg.errors import GenerationLimitExceededError

ATOMS = "abcdef"

GEN_LIMITS = Limits(max_arguments=400, max_depth=12)


def _literal(rng: random.Random, atoms: str, lo: int, hi: int) -> str:
    atom = atoms[rng.randrange(lo, hi)]
    return "~" + atom if rng.random() < 0.35 else atom


def _random_rules(rng: random.Random, atoms: str, n_rules: int,
                  premiseless_bias: float = 0.25) -> set[Rule]:
    rules: set[Rule] = set()
    for _ in range(n_rules):
        head_idx = rng.randrange(len(atoms))
        head = atoms[head_idx]
        if rng.random() < 0.35:
            head = "~" + head
        if head_idx == 0 or rng.random() < premiseless_bias:
            body: list[str] = []
        else:
            size = rng.randint(1, min(2, head_idx))
            body = [_literal(rng, atoms, 0, head_idx) for _ in range(size)]
        kind = STRICT if rng.random() < 0.3 else DEFEASIBLE
        rules.add(Rule(body, head, kind))
    return rules


def _random_theory(rng: random.Random, max_atoms: int, max_rules: int,
                   force_clash: bool = False):
    atoms = ATOMS[:rng.randint(2, max_atoms)]
    rules = _random_rules(rng, atoms, rng.randint(1, max_rules))
    literals = [a for a in atoms] + ["~" + a for a in atoms]
    rng.shuffle(literals)
    n_axioms = rng.randint(0, 2)
    n_premises = rng.randint(1, 3)
    axioms = literals[:n_axioms]
    premises = literals[n_axioms:n_axioms + n_premises]
    if force_clash:
        target = rng.choice(axioms + premises)
        rules.add(Rule([], target, rng.choice((STRICT, DEFEASIBLE))))
    naming = {}
    for rule in sorted(rules, key=Rule.sort_key):
        if not rule.is_strict and rng.random() < 0.3:
            naming[rule] = rng.choice(literals)
    return make_theory(rules=rules, naming=naming, axioms=axioms,
                       premises=premises, close_negation=True)


def _random_preferences(rng: random.Random, texts: list[str]) -> frozenset:
    prefs = set()
    if len(texts) >= 2:
        for _ in range(rng.randint(0, 2)):
            prefs.add(tuple(rng.sample(texts, 2)))
    return frozenset(prefs)


def random_rul_isaf(rng: random.Random, max_atoms: int = 4, max_rules: int = 5,
                    max_uncertain: int = 3, max_args: int = 30,
                    force_clash: bool = False) -> RulISAF:
    while True:
        try:
            theory = _random_theory(rng, max_atoms, max_rules,
                                    force_clash=force_clash)
            args = generate_arguments(theory, GEN_LIMITS)
        except GenerationLimitExceededError:
            continue
        if not 1 <= len(args) <= max_args:
            continue
        rules = sorted(theory.rules, key=Rule.sort_key)
        k = rng.randint(0, min(max_uncertain, len(rules)))
        uncertain = frozenset(rng.sample(rules, k))
        prefs = _random_preferences(rng, [a.text for a in args])
        return RulISAF(theory, uncertain, prefs)


def random_prem_isaf(rng: random.Random, max_atoms: int = 4, max_rules: int = 4,
                     max_uncertain: int = 3, max_args: int = 30,
                     force_clash: bool = False) -> PremISAF:
    while True:
        try:
            theory = _random_theory(rng, max_atoms, max_rules,
                                    force_clash=force_clash)
            args = generate_arguments(theory, GEN_LIMITS)
        except GenerationLimitExceededError:
            continue
        if not 1 <= len(args) <= max_args:
            continue
        kb = sorted(theory.knowledge_base)
        k = rng.randint(0, min(max_uncertain, len(kb)))
        chosen = set(rng.sample(kb, k))
        prefs = _random_preferences(rng, [a.text for a in args])
        return PremISAF(
            theory,
            uncertain_axioms=frozenset(chosen & theory.axioms),
            uncertain_premises=frozenset(chosen & theory.premises),
            preferences=prefs,
        )


def random_arg_iaf(rng: random.Random, max_args: int = 4,
                   edge_prob: float = 0.35) -> ArgIAF:
    n = rng.randint(0, max_args)
    names = list(ATOMS[:n])
    uncertain = {a for a in names if rng.random() < 0.5}
    defeats = [(s, t) for s in names for t in names
               if rng.random() < edge_prob]
    return ArgIAF(set(names) - uncertain, uncertain, defeats)


@contextmanager
def frameworks_built():
    """Count the frameworks built inside the block, through the public
    constructor or the unchecked one, in the one-item list it yields."""
    built = [0]
    init, canonical = AbstractAF.__init__, AbstractAF._canonical.__func__

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def counted_canonical(cls, *args):
        built[0] += 1
        return canonical(cls, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AbstractAF, "__init__", counted_init)
        patch.setattr(AbstractAF, "_canonical", classmethod(counted_canonical))
        yield built


@contextmanager
def no_member_built():
    """Fail when a framework is built inside the block: a completion set
    must answer from what it holds, without materialising its members."""
    with frameworks_built() as built:
        yield
    assert built == [0], f"{built[0]} frameworks were built"


@contextmanager
def no_cyclic_garbage():
    """Fail when the block leaves objects that only the cyclic garbage
    collector can free: every object it makes and drops must die by
    reference count.  The collector is off inside the block, so none of
    them is freed before the count at its end."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
        unreachable = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert unreachable == 0, \
        f"{unreachable} unreachable objects left for the cyclic collector"


def nand_cut_cases():
    """Sets whose full subset a Nand excludes, so no member holds the
    whole framework: a cut pair with a defeat between the cut arguments
    (that defeat is in no member), and one whose cut pair defeats a
    third argument."""
    cut_defeated = DepArgIAF(ArgIAF(["c"], ["a", "b"],
                                    [("a", "b"), ("b", "c")]),
                             [Nand(["a", "b"])])
    cut_defeating = DepArgIAF(ArgIAF(["a"], ["b", "c"],
                                     [("b", "a"), ("c", "b")]),
                              [Nand(["b", "c"])])
    return [(cut_defeated, [("a", "c"), ("b", "c"), ("c",)],
             [("b", "c")]),
            (cut_defeating, [("a",), ("a", "b"), ("a", "c")],
             [("b", "a")])]
