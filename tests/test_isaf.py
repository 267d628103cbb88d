import random
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
    MixedUncertaintyError,
    UncertaintyBoundExceededError,
)
from uarg import Limits, associated_af
from uarg.documents import load_theory_document, build_rul_isaf

from framework_gen import random_prem_isaf, random_rul_isaf


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
        t10 = fixtures.get("thm10_rul")
        with pytest.raises(UncertaintyBoundExceededError,
                           match=": 3 uncertain .*--max-uncertain or "
                                 "UARG_MAX_UNCERTAIN$"):
            completions_rul(t10, Limits(max_uncertain=2))


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
        with pytest.raises(ArgumentNotOfTheoryError):
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


class TestRestrictionMatchesRegeneration:
    """completions_rul/completions_prem restrict the maximal completion's
    defeat graph; the oracle regenerates every completion from its own
    theory and lifts it."""

    @pytest.mark.parametrize("side", ["rul", "prem"])
    def test_random(self, side):
        make, complete, oracle = {
            "rul": (random_rul_isaf, completions_rul, rule_completions),
            "prem": (random_prem_isaf, completions_prem, premise_completions),
        }[side]
        rng = random.Random(59)
        preferences_matter = named = 0
        for _ in range(150):
            isaf = make(rng, max_uncertain=4)
            assert complete(isaf) == CompletionSet(
                associated_af(saf) for saf in oracle(isaf)), isaf
            named += bool(isaf.theory.naming)
            preferences_matter += (associated_af(saf_max(isaf))
                                   != associated_af(SAF(isaf.theory)))
        # the sample must hold named rules, and preferences that remove
        # defeats from the maximal graph
        assert named and preferences_matter


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
        from uarg.documents import document_kind

        with pytest.raises(MixedUncertaintyError):
            document_kind(doc)

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
