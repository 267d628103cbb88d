import random
import sys
import threading
from dataclasses import replace
from itertools import combinations

import pytest

from uarg import (
    DEFEASIBLE,
    SAF,
    CompletionSet,
    PremISAF,
    Rule,
    RulISAF,
    completions_prem,
    completions_rul,
    defeat_coherence_check,
    fixtures,
    generate_arguments,
    is_tidy,
    make_theory,
    premise_completions,
    rule_completions,
    saf_fixed,
    saf_max,
    uncertain_premises_of,
    uncertain_rules_of,
)
from uarg.errors import (
    ArgumentNotOfTheoryError,
    GenerationLimitExceededError,
    MixedUncertaintyError,
    PreferenceUnknownArgumentError,
    UncertaintyBoundExceededError,
)
from uarg import (
    DEFAULT_LIMITS,
    Limits,
    associated_af,
    completion_set_of,
    prem_isaf_to_imp_arg_iaf,
    prem_isaf_to_rul_isaf,
    rul_isaf_to_imp_arg_iaf,
    tidy,
)
from uarg import aspic
from uarg import isaf as isaf_module
from uarg.documents import (
    build_prem_isaf,
    build_rul_isaf,
    build_saf,
    load_theory_document,
)

from framework_gen import GEN_LIMITS, random_prem_isaf, random_rul_isaf
from oracles import pairwise_defeat_coherence, regenerated_completion_items


def text_index(theory):
    return {a.text: a for a in generate_arguments(theory)}


class TestRuleCompletions:
    def test_example4_counts(self):
        ex4 = fixtures.get("example4")
        safs = rule_completions(ex4)
        assert len(safs) == 4
        abstract = completions_rul(ex4)
        assert len(abstract) == 4
        assert sorted(len(af.args) for af in abstract) == [6, 7, 7, 8]

    def test_no_uncertain_rules(self):
        ex3 = fixtures.get("example3")
        isaf = RulISAF(ex3.theory, frozenset(), ex3.preferences)
        assert len(rule_completions(isaf)) == 1
        assert len(completions_rul(isaf)) == 1

    def test_two_rule_completions_for_one_uncertain_rule(self):
        t3 = fixtures.get("thm3_rul")
        assert len(rule_completions(t3)) == 2

    def test_duplicate_graphs_collapse(self):
        t10 = fixtures.get("thm10_rul")
        assert len(rule_completions(t10)) == 8
        assert len(completions_rul(t10)) == 5
        assert completions_rul(t10) == CompletionSet(
            associated_af(saf) for saf in rule_completions(t10))

    def test_naming_restricted_to_surviving_rules(self):
        ex4 = fixtures.get("example4")
        named_rule = Rule(["p"], "q", DEFEASIBLE)
        for saf in rule_completions(ex4):
            if named_rule in saf.theory.rules:
                assert saf.theory.naming.get(named_rule) == "r"
            else:
                assert named_rule not in saf.theory.naming

    def test_bound(self):
        # the completion sets and the completions of both structured kinds
        # check the one bound on their k uncertain rules or premises, and
        # pass at it
        for name, k, readers in (
                ("thm10_rul", 3, (completions_rul, rule_completions)),
                ("thm7_prem", 1, (completions_prem, premise_completions))):
            x = fixtures.get(name)
            for read in readers:
                with pytest.raises(UncertaintyBoundExceededError,
                                   match=f": {k} uncertain .*--max-uncertain "
                                         "or UARG_MAX_UNCERTAIN$"):
                    read(x, Limits(max_uncertain=k - 1))
                read(x, Limits(max_uncertain=k))


class TestPremiseCompletions:
    def test_example5_counts(self):
        ex5 = fixtures.get("example5")
        safs = premise_completions(ex5)
        assert len(safs) == 2
        abstract = completions_prem(ex5)
        assert sorted(len(af.args) for af in abstract) == [6, 8]

    def test_thm7_completions(self):
        t7 = fixtures.get("thm7_prem")
        abstract = completions_prem(t7)
        assert sorted(tuple(af.args) for af in abstract) == [
            ("[q]=d>r", "p", "q"), ("p",)]
        assert all(not af.defeats for af in abstract)

    def test_axiom_premise_status_preserved(self):
        theory = make_theory(axioms=["a"], premises=["p"],
                             close_negation=True)
        isaf = PremISAF(theory, uncertain_axioms=frozenset({"a"}),
                        uncertain_premises=frozenset({"p"}))
        for saf in premise_completions(isaf):
            assert saf.theory.axioms <= {"a"}
            assert saf.theory.premises <= {"p"}

    def test_naming_unchanged_for_premise_completions(self):
        rule = Rule(["p"], "q", DEFEASIBLE)
        theory = make_theory(rules=[rule], naming={rule: "n"},
                             premises=["p"], close_negation=True)
        isaf = PremISAF(theory, uncertain_premises=frozenset({"p"}))
        for saf in premise_completions(isaf):
            assert saf.theory.naming == {rule: "n"}


class TestDistinguishedCompletions:
    def test_example4_fixed_rules(self):
        ex4 = fixtures.get("example4")
        fixed = saf_fixed(ex4)
        assert fixed.theory.rules == frozenset({
            Rule(["w"], "r", DEFEASIBLE), Rule(["s"], "~r", DEFEASIBLE)})

    def test_no_uncertainty_fixed_equals_max(self):
        ex3 = fixtures.get("example3")
        isaf = RulISAF(ex3.theory, frozenset(), ex3.preferences)
        assert saf_fixed(isaf) == saf_max(isaf)

    def test_example5_max_kb(self):
        ex5 = fixtures.get("example5")
        assert saf_max(ex5).theory.knowledge_base == {"p", "u", "s", "w"}

    @pytest.mark.parametrize("name", ["example4", "example5"])
    def test_fixed_raises_what_max_raises(self, name):
        x = fixtures.get(name)
        n = len(isaf_module._model(x, DEFAULT_LIMITS).arguments)
        unknown = replace(x, preferences=frozenset({("nowhere", "p")}))
        for framework, limits, error in (
                (unknown, DEFAULT_LIMITS, PreferenceUnknownArgumentError),
                (x, Limits(max_arguments=n - 1), GenerationLimitExceededError)):
            messages = []
            for call in (saf_max, saf_fixed):
                with pytest.raises(error) as raised:
                    call(framework, limits)
                messages.append(str(raised.value))
            assert messages[0] == messages[1]
        # the minimal completion is one subset: no bound on their number
        assert saf_fixed(x, Limits(max_uncertain=0)) == saf_fixed(x)

    def test_extreme_completions_belong_to_completion_set(self):
        rng = random.Random(37)
        for _ in range(10):
            for isaf in (random_rul_isaf(rng), random_prem_isaf(rng)):
                afs = (completions_rul(isaf) if hasattr(isaf, "uncertain_rules")
                       else completions_prem(isaf))
                assert associated_af(saf_fixed(isaf)) in afs
                assert associated_af(saf_max(isaf)) in afs


class TestUncertainLoad:
    def test_uncertain_rules_of_chain(self):
        t3 = fixtures.get("thm3_rul")
        index = text_index(t3.theory)
        top = index["[[p]=d>q]=d>r"]
        assert uncertain_rules_of(t3, top) == frozenset(
            {Rule(["p"], "q", DEFEASIBLE)})
        assert uncertain_rules_of(t3, index["p"]) == frozenset()
        assert uncertain_rules_of(t3, []) == frozenset()

    def test_uncertain_premises_of(self):
        t7 = fixtures.get("thm7_prem")
        index = text_index(t7.theory)
        assert uncertain_premises_of(t7, index["[q]=d>r"]) == frozenset({"q"})
        assert uncertain_premises_of(t7, index["p"]) == frozenset()
        assert uncertain_premises_of(
            t7, [index["p"], index["[q]=d>r"]]) == frozenset({"q"})

    def test_argument_of_other_theory_rejected(self):
        t3 = fixtures.get("thm3_rul")
        foreign = text_index(fixtures.get("thm10_rul").theory)["[]=d>p_b"]
        # the one "argument of the theory" check, with its message
        with pytest.raises(ArgumentNotOfTheoryError,
                           match=r"\[\]=d>p_b is not generated by the theory"):
            uncertain_rules_of(t3, foreign)


class TestTidy:
    def test_direct_violation(self):
        theory = make_theory(rules=[Rule([], "p", DEFEASIBLE)],
                             premises=["p"], close_negation=True)
        assert not is_tidy(PremISAF(theory))

    def test_no_premiseless_rules(self):
        t7 = fixtures.get("thm7_prem")
        assert is_tidy(t7)

    def test_clash_set_is_kb_intersect_heads(self):
        theory = make_theory(
            rules=[Rule([], "p", DEFEASIBLE), Rule([], "x", DEFEASIBLE)],
            premises=["p", "q"], close_negation=True)
        heads = {r.head for r in theory.rules if not r.body}
        assert theory.knowledge_base & heads == {"p"}
        assert not is_tidy(PremISAF(theory))


class TestDefeatCoherence:
    def test_example4(self):
        assert defeat_coherence_check(fixtures.get("example4"))

    def test_example5(self):
        assert defeat_coherence_check(fixtures.get("example5"))

    def test_single_completion(self):
        ex3 = fixtures.get("example3")
        assert defeat_coherence_check(RulISAF(ex3.theory, frozenset(),
                                              ex3.preferences))

    def test_randomized(self):
        rng = random.Random(41)
        for _ in range(40):
            assert defeat_coherence_check(random_rul_isaf(rng))
            assert defeat_coherence_check(random_prem_isaf(rng))


def _regenerated_set(x):
    return CompletionSet(associated_af(saf, arguments) for saf, arguments
                         in regenerated_completion_items(x))


def _effective_preferences(x) -> bool:
    """The preferences remove a defeat from the maximal graph."""
    return associated_af(saf_max(x)) != associated_af(SAF(x.theory))


class TestRestrictionMatchesRegeneration:
    """Every completion is read from the load model: the completion sets
    restrict the maximal completion's defeat graph, and each completion's
    arguments are the maximal ones its subset holds the load of.  The
    oracles regenerate every completion from its own theory."""

    @pytest.mark.parametrize("side", ["rul", "prem"])
    def test_random(self, side):
        make, complete = {
            "rul": (random_rul_isaf, completions_rul),
            "prem": (random_prem_isaf, completions_prem),
        }[side]
        rng = random.Random(59)
        preferences_matter = named = 0
        for _ in range(150):
            isaf = make(rng, max_uncertain=4)
            assert complete(isaf) == _regenerated_set(isaf), isaf
            named += bool(isaf.theory.naming)
            preferences_matter += _effective_preferences(isaf)
        # the sample must hold named rules, and preferences that remove
        # defeats from the maximal graph
        assert named and preferences_matter

    @pytest.mark.parametrize("side", ["rul", "prem"])
    def test_completions_read_from_model(self, side):
        make = {"rul": random_rul_isaf, "prem": random_prem_isaf}[side]
        rng = random.Random(61)
        preferences_matter = named = 0
        for i in range(150):
            isaf = make(rng, max_uncertain=4, force_clash=bool(i % 2))
            items = regenerated_completion_items(isaf)
            assert isaf_module._completion_items(isaf, DEFAULT_LIMITS) == \
                items, isaf
            assert saf_fixed(isaf) == items[0][0]
            assert defeat_coherence_check(isaf) == \
                pairwise_defeat_coherence(isaf)
            named += bool(isaf.theory.naming)
            preferences_matter += _effective_preferences(isaf)
        assert named and preferences_matter


# A completion set followed by a translation of the same framework.
MODEL_PAIRS = {
    "rul-imp": ("rul", completions_rul, rul_isaf_to_imp_arg_iaf),
    "prem-imp": ("prem", completions_prem, prem_isaf_to_imp_arg_iaf),
    "prem-rul": ("prem", completions_prem, prem_isaf_to_rul_isaf),
}


def _model_frameworks(side):
    """The side's fixture and random frameworks; on the premise side every
    other one is untidy, so prem_isaf_to_rul_isaf tidies it first."""
    rng = random.Random(83)
    if side == "rul":
        return [fixtures.get("thm10_rul")] + [
            random_rul_isaf(rng, max_uncertain=4) for _ in range(12)]
    return [fixtures.get("thm7_prem")] + [
        random_prem_isaf(rng, max_uncertain=4, force_clash=bool(i % 2))
        for i in range(12)]


def _count_generation(monkeypatch) -> list:
    """Patch every binding of generate_arguments in uarg to record the
    theory of each call in the list returned: a module importing the name
    would bypass a patch of aspic alone."""
    seen = []
    original = aspic.generate_arguments

    def counting(theory, limits=aspic.DEFAULT_LIMITS):
        seen.append(theory)
        return original(theory, limits)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("uarg") and \
                getattr(module, "generate_arguments", None) is original:
            monkeypatch.setattr(module, "generate_arguments", counting)
    return seen


class TestLoadModel:
    """A structured framework compiles its maximal completion once per
    limits; completion sets, every completion, saf_max, saf_fixed, the
    defeat-coherence check, the implicative abstraction and tidying read
    that one model."""

    @pytest.mark.parametrize("order", ["completions-first",
                                       "translation-first"])
    @pytest.mark.parametrize("pair", sorted(MODEL_PAIRS))
    def test_source_theory_generated_once(self, pair, order, monkeypatch):
        side, complete, translate_fn = MODEL_PAIRS[pair]
        cold = [(complete(x, GEN_LIMITS), translate_fn(x, GEN_LIMITS))
                for x in _model_frameworks(side)]
        seen = _count_generation(monkeypatch)
        untidy = 0
        for x, (source, translated) in zip(_model_frameworks(side), cold):
            seen.clear()
            if order == "completions-first":
                got = (complete(x, GEN_LIMITS), translate_fn(x, GEN_LIMITS))
            else:
                got = tuple(reversed((translate_fn(x, GEN_LIMITS),
                                      complete(x, GEN_LIMITS))))
            assert sum(theory == x.theory for theory in seen) == 1, x
            assert got == (source, translated)
            untidy += not is_tidy(x)
        assert untidy or side == "rul"

    @pytest.mark.parametrize("call", [rule_completions, premise_completions,
                                      saf_fixed, defeat_coherence_check],
                             ids=lambda call: call.__name__)
    def test_completions_generated_once(self, call, monkeypatch):
        sides = {rule_completions: ["rul"],
                 premise_completions: ["prem"]}.get(call, ["rul", "prem"])
        frameworks = [x for side in sides for x in _model_frameworks(side)]
        seen = _count_generation(monkeypatch)
        for x in frameworks:
            assert "_models" not in x.__dict__
            seen.clear()
            cold = call(x, GEN_LIMITS)
            assert len(seen) == 1 and seen[0] == x.theory, x
            seen.clear()
            assert call(x, GEN_LIMITS) == cold
            assert not seen, x

    def test_stricter_limits_still_raise(self):
        x = fixtures.get("thm10_rul")
        model = isaf_module._model(x, GEN_LIMITS)
        assert isaf_module._model(x, GEN_LIMITS) is model
        n = len(model.arguments)
        for strict in (Limits(max_arguments=n - 1),
                       Limits(max_arguments=n - 1, max_depth=1)):
            for _ in range(2):
                with pytest.raises(GenerationLimitExceededError):
                    completions_rul(x, strict)
                with pytest.raises(GenerationLimitExceededError):
                    rul_isaf_to_imp_arg_iaf(x, strict)
        assert set(x.__dict__["_models"]) == {GEN_LIMITS}
        assert len(completions_rul(x, Limits(max_arguments=n))) == 5

    def test_uncertain_bound_checked_per_call(self):
        x = fixtures.get("thm10_rul")
        assert len(completions_rul(x)) == 5
        for _ in range(2):
            with pytest.raises(UncertaintyBoundExceededError):
                completions_rul(x, Limits(max_uncertain=2))

    @pytest.mark.parametrize("name", ["thm10_rul", "thm7_prem"])
    def test_unknown_preference_raises_every_call(self, name):
        x = fixtures.get(name)
        x = replace(x, preferences=frozenset({("nowhere", "p")}))
        calls = [saf_max, completion_set_of,
                 rul_isaf_to_imp_arg_iaf if name == "thm10_rul" else tidy]
        for _ in range(2):
            for call in calls:
                with pytest.raises(PreferenceUnknownArgumentError):
                    call(x)
        assert not x.__dict__["_models"]

    @pytest.mark.parametrize("side", ["rul", "prem"])
    def test_replace_builds_its_own_model(self, side):
        make, complete = {
            "rul": (random_rul_isaf, completions_rul),
            "prem": (random_prem_isaf, completions_prem),
        }[side]
        rng = random.Random(89)
        checked = 0
        while checked < 5:
            x = make(rng, max_uncertain=3)
            if not _effective_preferences(x):
                continue
            plain = replace(x, preferences=frozenset())
            assert "_models" not in plain.__dict__
            plain_set = complete(plain)
            ranked = replace(plain, preferences=x.preferences)
            assert "_models" not in ranked.__dict__
            assert complete(ranked) == _regenerated_set(ranked)
            assert complete(ranked) != plain_set
            assert isaf_module._model(ranked, DEFAULT_LIMITS) is not \
                isaf_module._model(plain, DEFAULT_LIMITS)
            assert saf_max(ranked).preferences == x.preferences
            checked += 1

    def test_concurrent_first_calls_agree(self):
        x = fixtures.get("thm10_rul")
        expected = completions_rul(fixtures.get("thm10_rul"))
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(
                target=lambda: results.append(completions_rul(x)))
                for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert results == [expected] * 8
        assert set(x.__dict__["_models"]) == {DEFAULT_LIMITS}

    @pytest.mark.parametrize("name", ["thm10_rul", "thm7_prem"])
    def test_equality_and_repr_ignore_model(self, name):
        x, y = fixtures.get(name), fixtures.get(name)
        before = repr(x)
        completion_set_of(x)
        saf_max(x, GEN_LIMITS)
        assert set(x.__dict__["_models"]) == {DEFAULT_LIMITS, GEN_LIMITS}
        assert "_models" not in y.__dict__
        assert repr(x) == repr(y) == before
        assert x == y and y == x
        assert replace(x) == x and "_models" not in replace(x).__dict__


def _forced_everywhere(afs, group_texts, arg_text):
    """Brute-force left side of the completion characterization: every
    completion containing the group also contains the argument."""
    for af in afs:
        nodes = af.arg_set
        if group_texts <= nodes and arg_text not in nodes:
            return False
    return True


class TestCompletionCharacterization:
    def test_rule_load_characterization(self):
        rng = random.Random(43)
        for _ in range(20):
            isaf = random_rul_isaf(rng, max_uncertain=3)
            args = generate_arguments(isaf.theory)
            afs = list(completions_rul(isaf))
            loads = {a.text: uncertain_rules_of(isaf, a) for a in args}
            names = sorted(loads)
            for size in range(1, min(3, len(names)) + 1):
                for group in combinations(names, size):
                    union = frozenset().union(*(loads[g] for g in group))
                    for x in names:
                        lhs = _forced_everywhere(afs, set(group), x)
                        rhs = loads[x] <= union
                        assert lhs == rhs, (isaf, group, x)

    def test_premise_load_characterization(self):
        rng = random.Random(47)
        for _ in range(20):
            isaf = random_prem_isaf(rng, max_uncertain=3)
            args = generate_arguments(isaf.theory)
            afs = list(completions_prem(isaf))
            loads = {a.text: uncertain_premises_of(isaf, a) for a in args}
            names = sorted(loads)
            for size in range(1, min(3, len(names)) + 1):
                for group in combinations(names, size):
                    union = frozenset().union(*(loads[g] for g in group))
                    for x in names:
                        lhs = _forced_everywhere(afs, set(group), x)
                        rhs = loads[x] <= union
                        assert lhs == rhs, (isaf, group, x)


class TestDocumentUncertainty:
    def test_mixed_uncertainty_rejected(self):
        doc = load_theory_document({
            "close_negation": True,
            "rules": [{"body": [], "head": "p", "kind": "defeasible",
                       "status": "uncertain"}],
            "kb": {"axioms_fixed": [], "axioms_uncertain": ["q"],
                   "premises_fixed": [], "premises_uncertain": []},
        })
        for build in (build_saf, build_rul_isaf, build_prem_isaf):
            with pytest.raises(MixedUncertaintyError):
                build(doc)

    def test_rule_uncertainty_document(self):
        doc = load_theory_document({
            "close_negation": True,
            "rules": [{"body": [], "head": "p", "kind": "defeasible",
                       "status": "uncertain"}],
            "kb": {"axioms_fixed": [], "axioms_uncertain": [],
                   "premises_fixed": ["q"], "premises_uncertain": []},
        })
        isaf = build_rul_isaf(doc)
        assert isaf.uncertain_rules == frozenset(
            {Rule([], "p", DEFEASIBLE)})
