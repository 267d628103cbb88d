import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import uarg
from uarg import (
    DEFEASIBLE,
    STRICT,
    SAF,
    AbstractAF,
    ArgumentationTheory,
    Limits,
    Rule,
    associated_af,
    attacks,
    defeats,
    fixtures,
    generate_arguments,
    inference_argument,
    make_theory,
    premise_argument,
    tidy,
)
from uarg.aspic import _argument_of_theory
from uarg.errors import (
    ArgumentNotOfTheoryError,
    GenerationLimitExceededError,
    InvalidTheoryError,
    PreferenceUnknownArgumentError,
)

from framework_gen import random_prem_isaf, random_rul_isaf
from oracles import (
    is_premiseless,
    is_simple,
    leaf_built_attacks,
    walked_argument_of_theory,
    walked_premises,
    walked_rules_used,
    walked_sub_arguments,
)


def by_text(arguments):
    return {arg.text: arg for arg in arguments}


class TestTheoryValidation:
    def test_axioms_and_premises_disjoint(self):
        with pytest.raises(InvalidTheoryError):
            make_theory(axioms=["p"], premises=["p"], close_negation=True)

    def test_every_formula_needs_a_contradictory(self):
        with pytest.raises(InvalidTheoryError):
            make_theory(premises=["p"])

    def test_close_negation_adds_both_pairs(self):
        theory = make_theory(premises=["p"], close_negation=True)
        assert ("p", "~p") in theory.contraries
        assert ("~p", "p") in theory.contraries
        assert "~p" in theory.formulas

    def test_naming_only_for_defeasible_rules(self):
        strict = Rule(["p"], "q", STRICT)
        with pytest.raises(InvalidTheoryError):
            make_theory(rules=[strict], naming={strict: "r"},
                        premises=["p"], close_negation=True)

    def test_naming_collision_allowed(self):
        r1 = Rule(["p"], "q", DEFEASIBLE)
        r2 = Rule([], "q2", DEFEASIBLE)
        theory = make_theory(rules=[r1, r2], naming={r1: "n", r2: "n"},
                             premises=["p"], close_negation=True)
        assert theory.naming[r1] == theory.naming[r2] == "n"

    def test_direct_construction_is_validated(self):
        with pytest.raises(InvalidTheoryError, match="no contradictory"):
            ArgumentationTheory(
                formulas=frozenset({"p"}), contraries=frozenset(),
                rules=frozenset(), naming={}, axioms=frozenset(),
                premises=frozenset({"p"}))

    def test_replace_is_validated(self):
        theory = make_theory(axioms=["a"], premises=["p"],
                             close_negation=True)
        with pytest.raises(InvalidTheoryError, match="both axiom"):
            replace(theory, axioms=theory.premises)

    @pytest.mark.parametrize("close_negation", [False, True])
    def test_non_string_formula(self, close_negation):
        with pytest.raises(InvalidTheoryError,
                           match="invalid formula token: 5$"):
            make_theory(premises=[5], close_negation=close_negation)
        # strings sort before other types, whatever the hash seed
        with pytest.raises(InvalidTheoryError,
                           match="invalid formula token: 'a b'$"):
            make_theory(premises=[5, "a b", None],
                        close_negation=close_negation)

    def test_non_string_formula_in_direct_construction(self):
        with pytest.raises(InvalidTheoryError, match=r"\[5, None\]$"):
            ArgumentationTheory(
                formulas=frozenset({"p", "~p"}),
                contraries=frozenset({("p", "~p"), ("~p", "p")}),
                rules=frozenset(), naming={}, axioms=frozenset({None, 5}),
                premises=frozenset({"p"}))

    @pytest.mark.parametrize("body, head", [(["a"], 7), ([7, "b"], "a")])
    def test_rule_formulas_are_strings(self, body, head):
        with pytest.raises(InvalidTheoryError,
                           match="rule formulas must be strings: 7$"):
            Rule(body, head, STRICT)

    def test_errors_name_the_smallest_formula(self):
        with pytest.raises(InvalidTheoryError,
                           match="invalid formula token: 'a b'"):
            make_theory(formulas=["b c", "a b"], close_negation=True)
        # which formula a set yields first depends on the hash seed
        src = str(Path(uarg.__file__).resolve().parent.parent)
        script = ("from uarg import make_theory\n"
                  "try:\n"
                  "    make_theory(premises=['s', 'r', 'q', 'p'])\n"
                  "except Exception as error:\n"
                  "    print(error)\n")
        for seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": seed})
            assert result.stdout.startswith(
                "INVALID_THEORY: formula 'p' has no contradictory"), \
                result.stdout + result.stderr


class TestGeneration:
    def test_example3_has_eight_arguments(self):
        saf = fixtures.get("example3")
        args = generate_arguments(saf.theory)
        assert sorted(a.text for a in args) == [
            "[p]=d>q", "[s]=d>~r", "[u]=s>~s", "[w]=d>r", "p", "s", "u", "w"]

    def test_empty_knowledge_no_premiseless_rules(self):
        theory = make_theory(rules=[Rule(["p"], "q", DEFEASIBLE)],
                             close_negation=True)
        assert generate_arguments(theory) == ()

    def test_chained_defeasible_rules(self):
        theory = make_theory(
            rules=[Rule(["q"], "r", DEFEASIBLE), Rule(["p"], "q", DEFEASIBLE)],
            premises=["p"], close_negation=True)
        texts = [a.text for a in generate_arguments(theory)]
        assert texts == ["[[p]=d>q]=d>r", "[p]=d>q", "p"]

    def test_recursive_rule_hits_limit(self):
        theory = make_theory(rules=[Rule(["p"], "p", DEFEASIBLE)],
                             premises=["p"], close_negation=True)
        with pytest.raises(GenerationLimitExceededError,
                           match="--max-depth or UARG_MAX_DEPTH"):
            generate_arguments(theory, Limits(max_depth=10))

    def test_count_limit(self):
        theory = make_theory(
            rules=[Rule([], f"p{i}", DEFEASIBLE) for i in range(5)],
            close_negation=True)
        with pytest.raises(GenerationLimitExceededError,
                           match="--max-arguments or UARG_MAX_ARGUMENTS"):
            generate_arguments(theory, Limits(max_arguments=3))

    def test_one_sub_argument_per_body_formula(self):
        # two derivations of q, so two arguments apply the same rule
        theory = make_theory(
            rules=[Rule([], "q", DEFEASIBLE), Rule(["q"], "r", DEFEASIBLE)],
            premises=["q"], close_negation=True)
        texts = [a.text for a in generate_arguments(theory)]
        assert "[q]=d>r" in texts and "[[]=d>q]=d>r" in texts
        assert len([t for t in texts if t.endswith(">r")]) == 2

    def test_monotone_under_rule_addition(self):
        rng = random.Random(23)
        for _ in range(25):
            isaf = random_rul_isaf(rng)
            small = make_theory(
                rules=isaf.fixed_rules, naming={}, axioms=isaf.theory.axioms,
                premises=isaf.theory.premises, close_negation=True)
            args_small = set(generate_arguments(small))
            args_big = set(generate_arguments(isaf.theory))
            assert args_small <= args_big


class TestArgumentFacts:
    def test_facts_membership_and_attacks_match_the_tree_walk(self):
        # random rule- and premise-incomplete theories, and the primed
        # theories that tidying an untidy premise framework builds
        rng = random.Random(25)
        theories = []
        for _ in range(12):
            clashing = random_prem_isaf(rng, force_clash=True)
            theories += [random_rul_isaf(rng).theory,
                         clashing.theory, tidy(clashing)[0].theory]
        outside = 0
        for theory, other in zip(theories, theories[1:] + theories[:1]):
            arguments = generate_arguments(theory)
            for arg in arguments:
                assert (arg.premises, arg.sub_arguments, arg.rules_used) == (
                    walked_premises(arg), walked_sub_arguments(arg),
                    walked_rules_used(arg))
                for owner in (theory, other):
                    member = _argument_of_theory(owner, arg)
                    assert member == walked_argument_of_theory(owner, arg)
                    outside += not member
            for attacker in arguments:
                for attacked in arguments:
                    assert attacks(theory, attacker, attacked) == \
                        leaf_built_attacks(theory, attacker, attacked)
        assert outside


class TestPredicates:
    def test_premiseless_simple_rule_argument(self):
        arg = inference_argument(Rule([], "p_x", DEFEASIBLE), [])
        assert is_premiseless(arg) and is_simple(arg)

    def test_premise_argument_is_simple_not_premiseless(self):
        arg = premise_argument("p")
        assert is_simple(arg) and not is_premiseless(arg)

    def test_nested_premiseless_not_simple(self):
        inner_s = inference_argument(Rule([], "a", STRICT), [])
        inner_d = inference_argument(Rule([], "b", DEFEASIBLE), [])
        outer = inference_argument(Rule(["a", "b"], "d", DEFEASIBLE),
                                   [inner_s, inner_d])
        assert is_premiseless(outer) and not is_simple(outer)


class TestAttacks:
    def setup_method(self):
        self.saf = fixtures.get("example3")
        self.args = by_text(generate_arguments(self.saf.theory))

    def test_undermine_on_ordinary_premise(self):
        found = attacks(self.saf.theory, self.args["[u]=s>~s"],
                        self.args["[s]=d>~r"])
        assert {(a.kind, a.locus.text) for a in found} == {("undermine", "s")}

    def test_undercut_through_rule_name(self):
        found = attacks(self.saf.theory, self.args["[s]=d>~r"],
                        self.args["[p]=d>q"])
        assert {(a.kind, a.locus.text) for a in found} == \
            {("undercut", "[p]=d>q")}

    def test_axioms_are_not_underminable(self):
        theory = make_theory(axioms=["p", "~p"], close_negation=True)
        args = by_text(generate_arguments(theory))
        assert attacks(theory, args["~p"], args["p"]) == frozenset()

    def test_argument_must_belong_to_theory(self):
        with pytest.raises(ArgumentNotOfTheoryError):
            attacks(self.saf.theory, premise_argument("zz"), self.args["s"])


class TestDefeats:
    def test_example3_defeats_exact(self):
        saf = fixtures.get("example3")
        pairs = {(a.text, b.text) for a, b in defeats(saf)}
        assert pairs == {
            ("[u]=s>~s", "s"),
            ("[u]=s>~s", "[s]=d>~r"),
            ("[w]=d>r", "[s]=d>~r"),
            ("[s]=d>~r", "[p]=d>q"),
        }

    def test_preference_blocks_rebut(self):
        saf = fixtures.get("example3")
        pairs = {(a.text, b.text) for a, b in defeats(saf)}
        assert ("[s]=d>~r", "[w]=d>r") not in pairs

    def test_mutual_undermining_without_preferences(self):
        theory = make_theory(premises=["p", "~p"], close_negation=True)
        saf = SAF(theory)
        pairs = {(a.text, b.text) for a, b in defeats(saf)}
        assert pairs == {("p", "~p"), ("~p", "p")}

    def test_unknown_preference_argument(self):
        theory = make_theory(premises=["p"], close_negation=True)
        saf = SAF(theory, frozenset({("p", "ghost")}))
        with pytest.raises(PreferenceUnknownArgumentError):
            defeats(saf)

    def test_errors_name_the_least_unknown_argument_and_defeat(self):
        # which preference or defeat a set yields first depends on the hash
        # seed; a defeat endpoint need not be a str
        src = str(Path(uarg.__file__).resolve().parent.parent)
        script = (
            "from uarg import (AbstractAF, ArgIAF, Rule, RulISAF,\n"
            "                  completions_rul, make_theory)\n"
            "theory = make_theory(rules=[Rule(['p'], 'q', 'defeasible')],\n"
            "                     premises=['p'], close_negation=True)\n"
            "prefs = {('zz1', 'p'), ('aa2', 'p'), ('mm3', 'q'), ('p', 'bb4')}\n"
            "pairs = [('a', 'x'), ('a', 'y'), ('b', 'a'), ('c', 'a'), ('a', 1)]\n"
            "for build in (\n"
            "        lambda: completions_rul(RulISAF(theory, theory.rules, prefs)),\n"
            "        lambda: AbstractAF(['a'], pairs),\n"
            "        lambda: ArgIAF(['a'], [], pairs)):\n"
            "    try:\n"
            "        build()\n"
            "    except Exception as error:\n"
            "        print(type(error).__name__, error)\n")
        expected = (
            "PreferenceUnknownArgumentError "
            "PREFERENCE_REFERS_TO_UNKNOWN_ARGUMENT: preference names an "
            "argument the theory does not generate: 'aa2'\n"
            "UndeclaredArgumentError UNDECLARED_ARGUMENT: defeat (a,x) has an "
            "endpoint outside the framework\n"
            "ValueError defeat (a,x) has an endpoint outside the framework\n")
        for seed in ("1", "2"):
            result = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": seed})
            assert result.stdout == expected, result.stdout + result.stderr

    def test_defeats_restrict_under_rule_growth(self):
        rng = random.Random(31)
        for _ in range(25):
            isaf = random_rul_isaf(rng)
            small_theory = make_theory(
                rules=isaf.fixed_rules, naming={}, axioms=isaf.theory.axioms,
                premises=isaf.theory.premises, close_negation=True)
            small_args = generate_arguments(small_theory)
            texts = {a.text for a in small_args}
            prefs = frozenset((a, b) for a, b in isaf.preferences
                              if a in texts and b in texts)
            naming_small = {r: n for r, n in isaf.theory.naming.items()
                            if r in isaf.fixed_rules}
            small_theory = make_theory(
                rules=isaf.fixed_rules, naming=naming_small,
                axioms=isaf.theory.axioms, premises=isaf.theory.premises,
                close_negation=True)
            small = SAF(small_theory, prefs)
            big = SAF(isaf.theory, isaf.preferences)
            d_small = {(a.text, b.text) for a, b in defeats(small, small_args)}
            big_args = generate_arguments(isaf.theory)
            d_big = {(a.text, b.text) for a, b in defeats(big, big_args)}
            restricted = {(a, b) for a, b in d_big
                          if a in texts and b in texts}
            assert d_small == restricted


class TestAssociatedAF:
    def test_generated_graph_matches_validated_lifting(self):
        # the canonical build of isaf._model's graph against the public
        # constructor, on the same generated arguments
        from uarg.aspic import _generated_af

        for seed in range(60):
            x = random_rul_isaf(random.Random(seed), max_args=20)
            saf = SAF(x.theory, x.preferences)
            arguments = generate_arguments(x.theory)
            fast = _generated_af(saf, arguments)
            slow = associated_af(saf, arguments)
            assert (fast.args, fast.defeats) == (slow.args, slow.defeats)

    def test_contrary_sets_built_once_per_theory(self):
        theory = fixtures.get("example3").theory
        cached = theory._contrary_map
        assert theory._contrary_map is cached
        assert cached == theory.contrary_sets()
        assert theory.contrary_sets() is not theory.contrary_sets()
        more = replace(theory, contraries=theory.contraries | {("p", "q")})
        assert more._contrary_map == more.contrary_sets() != cached
        assert more._contrary_map["q"] == {"p", "~q"}

    def test_example3_lifting(self):
        saf = fixtures.get("example3")
        af = associated_af(saf)
        assert len(af.args) == 8 and len(af.defeats) == 4

    def test_single_axiom(self):
        theory = make_theory(axioms=["p"], close_negation=True)
        assert associated_af(SAF(theory)) == AbstractAF(["p"])

    def test_chain_without_conflicts(self):
        theory = make_theory(
            rules=[Rule(["q"], "r", DEFEASIBLE), Rule(["p"], "q", DEFEASIBLE)],
            premises=["p"], close_negation=True)
        af = associated_af(SAF(theory))
        assert af == AbstractAF(["p", "[p]=d>q", "[[p]=d>q]=d>r"])
