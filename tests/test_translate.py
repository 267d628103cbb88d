import random
import sys
from dataclasses import fields, replace
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from uarg import (
    DEFEASIBLE,
    STRICT,
    AbstractAF,
    ArgIAF,
    CompletionSet,
    Limits,
    PremISAF,
    Rule,
    RulISAF,
    Witness,
    arg_iaf_to_prem_isaf,
    arg_iaf_to_rul_isaf,
    check_witness,
    completion_set_of,
    completions_dep,
    fixtures,
    generate_arguments,
    is_implicative,
    is_tidy,
    make_theory,
    prem_isaf_to_imp_arg_iaf,
    prem_isaf_to_rul_isaf,
    rul_isaf_to_imp_arg_iaf,
    tidy,
)
from uarg import aspic, translate
from uarg import isaf as isaf_module
from uarg.documents import serialize_framework
from uarg.errors import (
    GenerationLimitExceededError,
    InvalidTheoryError,
    PreferenceUnknownArgumentError,
)
from uarg.incomplete import DepArgIAF, ImplyDisj

from framework_gen import (
    GEN_LIMITS,
    no_cyclic_garbage,
    random_arg_iaf,
    random_prem_isaf,
    random_rul_isaf,
)
from oracles import (
    covering_imp_arg_iaf,
    generated_tidy,
    two_pass_prem_isaf_to_rul_isaf,
)


def certify(source, target, witness) -> bool:
    return check_witness(completion_set_of(source), completion_set_of(target),
                         witness)


class TestWitness:
    def test_identity_and_inverse(self):
        w = Witness({"a": "x", "b": "y"})
        assert w.invert().mapping == {"x": "a", "y": "b"}
        assert Witness.identity(["a"]).mapping == {"a": "a"}

    def test_compose(self):
        w1 = Witness({"a": "m"})
        w2 = Witness({"m": "z"})
        assert w1.compose(w2).mapping == {"a": "z"}

    def test_duplicate_source_rejected(self):
        with pytest.raises(ValueError):
            Witness([("a", "x"), ("a", "y")])

    def test_json_round_trip(self):
        w = Witness({"a": "x"})
        assert Witness.from_json(w.to_json()) == w

    def test_apply_matches_validating_construction(self):
        # apply builds each image without the per-graph checks; the images
        # must be the frameworks the validating constructor builds, also
        # when a witness merges two arguments
        rng = random.Random(61)
        names = ["a", "b", "c", "d", "e"]
        merged = 0
        for _ in range(60):
            members = []
            for _ in range(rng.randint(0, 4)):
                kept = [n for n in names if rng.random() < 0.7]
                members.append(AbstractAF(kept, [
                    (s, t) for s in kept for t in kept if rng.random() < 0.3]))
            source = CompletionSet(members)
            images = [f"x{i}" for i in range(len(names))]
            rng.shuffle(images)
            if rng.random() < 0.4:
                images[rng.randrange(5)] = images[rng.randrange(5)]
            w = Witness(zip(names, images))
            merged += not w.is_bijective
            m = w.mapping
            expected = CompletionSet(
                AbstractAF([m[a] for a in af.args],
                           [(m[s], m[t]) for s, t in af.defeats])
                for af in source)
            got = w.apply(source)
            assert got == expected
            assert [hash(af) for af in got] == [hash(af) for af in expected]
        assert merged >= 10

    def test_apply_rejects_invalid_image_and_missing_source(self):
        source = CompletionSet([AbstractAF(["a"])])
        with pytest.raises(ValueError, match="invalid argument identifier"):
            Witness({"a": "x y"}).apply(source)
        with pytest.raises(KeyError):
            Witness({"b": "x"}).apply(source)


class TestArgIafToRulIsaf:
    def test_example1_construction(self):
        iaf = fixtures.get("example1")
        target, witness = arg_iaf_to_rul_isaf(iaf)
        assert target.theory.premises == {"p_a"}
        assert target.uncertain_rules == frozenset({
            Rule([], "p_b", DEFEASIBLE), Rule([], "p_c", DEFEASIBLE)})
        assert ("p_b", "p_a") in target.theory.contraries
        assert ("p_c", "p_a") in target.theory.contraries
        assert certify(iaf, target, witness)

    def test_no_uncertain_arguments(self):
        iaf = ArgIAF(["a", "b"], [], [("a", "b")])
        target, witness = arg_iaf_to_rul_isaf(iaf)
        assert not target.uncertain_rules
        assert len(completion_set_of(target)) == 1
        assert certify(iaf, target, witness)

    def test_randomized_certification(self):
        rng = random.Random(53)
        for _ in range(40):
            iaf = random_arg_iaf(rng)
            target, witness = arg_iaf_to_rul_isaf(iaf)
            assert certify(iaf, target, witness)


class TestArgIafToPremIsaf:
    def test_example1_construction(self):
        iaf = fixtures.get("example1")
        target, witness = arg_iaf_to_prem_isaf(iaf)
        assert target.fixed_premises == {"p_a"}
        assert target.uncertain_premises == {"p_b", "p_c"}
        assert not target.theory.rules
        assert certify(iaf, target, witness)

    def test_empty_framework(self):
        iaf = ArgIAF()
        target, witness = arg_iaf_to_prem_isaf(iaf)
        completions = completion_set_of(target)
        assert len(completions) == 1
        assert list(completions)[0].args == ()
        assert certify(iaf, target, witness)

    def test_randomized_certification(self):
        rng = random.Random(59)
        for _ in range(40):
            iaf = random_arg_iaf(rng)
            target, witness = arg_iaf_to_prem_isaf(iaf)
            assert certify(iaf, target, witness)


class TestTrustedEncodedTheories:
    """Both arg-IAF encodings build their theory and framework unchecked;
    each is the one the validating constructors build from the same
    inputs."""

    @staticmethod
    def validated(iaf, target):
        """The encoded framework as the public constructors build it from
        the argument names, the defeats and the kind of encoding."""
        token = translate._formula_names(iaf.all_args)
        contraries = {(token[s], token[t]) for s, t in iaf.defeats}
        for name in iaf.all_args:
            contraries |= {(token[name], "~" + token[name]),
                           ("~" + token[name], token[name])}
        uncertain = [token[name] for name in iaf.uncertain_args]
        if isinstance(target, RulISAF):
            rules = frozenset(Rule((), phi, DEFEASIBLE) for phi in uncertain)
            theory = make_theory(
                contraries=contraries, rules=rules,
                premises=[token[name] for name in iaf.fixed_args])
            return RulISAF(theory, rules)
        theory = make_theory(contraries=contraries, rules=(),
                             premises=[token[name] for name in iaf.all_args])
        return PremISAF(theory, uncertain_premises=frozenset(uncertain))

    def test_unvalidated_yet_equal_to_validated(self, monkeypatch):
        calls = []
        original = aspic.validate_theory

        def counting(theory):
            calls.append(theory)
            return original(theory)

        # patch every binding: a module importing the name would bypass a
        # patch of aspic alone
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("uarg") and \
                    getattr(module, "validate_theory", None) is original:
                monkeypatch.setattr(module, "validate_theory", counting)
        rng = random.Random(67)
        # names that are not formula tokens, as in TestPositionalFormulaTokens
        iafs = [TestPositionalFormulaTokens.IAF, ArgIAF(),
                ArgIAF([], ["a[1]", "b"], [("b", "a[1]")])]
        iafs += [random_arg_iaf(rng, max_args=5) for _ in range(60)]
        built = []
        for iaf in iafs:
            for encode in (arg_iaf_to_rul_isaf, arg_iaf_to_prem_isaf):
                target, _ = encode(iaf)
                seeded = vars(target.theory).get("_contrary_map")
                completion_set_of(target)
                built.append((iaf, target, seeded))
        assert calls == []
        monkeypatch.undo()
        for iaf, target, seeded in built:
            theory = target.theory
            original(theory)  # valid, though never validated
            expected = self.validated(iaf, target)
            for f in fields(aspic.ArgumentationTheory):
                assert getattr(theory, f.name) == \
                    getattr(expected.theory, f.name), f.name
            assert target == expected
            assert seeded == theory.contrary_sets()


class TestPositionalFormulaTokens:
    """Argument names that are not formula tokens are encoded as p0, p1,
    ... in name order, by both encodings."""

    IAF = ArgIAF(["a[1]"], ["b;c", "[d]"],
                 [("a[1]", "b;c"), ("b;c", "[d]"), ("[d]", "[d]")])

    def test_rule_encoding(self):
        target, witness = arg_iaf_to_rul_isaf(self.IAF)
        assert witness.mapping == {"[d]": "[]=d>p0", "a[1]": "p1",
                                   "b;c": "[]=d>p2"}
        assert target.theory.premises == {"p1"}
        assert certify(self.IAF, target, witness)

    def test_premise_encoding(self):
        target, witness = arg_iaf_to_prem_isaf(self.IAF)
        assert witness.mapping == {"[d]": "p0", "a[1]": "p1", "b;c": "p2"}
        assert target.uncertain_premises == {"p0", "p2"}
        assert certify(self.IAF, target, witness)


class TestRulIsafToImpArgIaf:
    def test_chain_fixture_dependencies(self):
        t3 = fixtures.get("thm3_rul")
        target, witness = rul_isaf_to_imp_arg_iaf(t3)
        assert target.base.fixed_args == ("p",)
        assert set(target.base.uncertain_args) == {"[p]=d>q",
                                                   "[[p]=d>q]=d>r"}
        assert ImplyDisj(["[p]=d>q"], ["[[p]=d>q]=d>r"]) in target.deps
        assert ImplyDisj(["[[p]=d>q]=d>r"], ["[p]=d>q"]) in target.deps
        assert is_implicative(target)
        assert certify(t3, target, witness)

    def test_no_uncertain_rules(self):
        ex3 = fixtures.get("example3")
        from uarg import RulISAF

        isaf = RulISAF(ex3.theory, frozenset(), ex3.preferences)
        target, witness = rul_isaf_to_imp_arg_iaf(isaf)
        assert not target.base.uncertain_args and not target.deps
        assert certify(isaf, target, witness)

    def test_example4_certification(self):
        ex4 = fixtures.get("example4")
        target, witness = rul_isaf_to_imp_arg_iaf(ex4)
        assert len(completions_dep(target)) == 4
        assert certify(ex4, target, witness)

    def test_minimal_delta_matches_full_delta(self):
        rng = random.Random(61)
        checked = 0
        while checked < 15:
            isaf = random_rul_isaf(rng, max_uncertain=2, max_args=12)
            minimal, _ = rul_isaf_to_imp_arg_iaf(isaf)
            if len(minimal.base.uncertain_args) > 4:
                continue
            full = covering_imp_arg_iaf(isaf)
            assert completions_dep(minimal) == completions_dep(full)
            assert minimal.deps <= full.deps
            checked += 1

    def test_randomized_certification(self):
        rng = random.Random(67)
        for _ in range(25):
            isaf = random_rul_isaf(rng)
            target, witness = rul_isaf_to_imp_arg_iaf(isaf)
            assert is_implicative(target)
            assert certify(isaf, target, witness)


class TestMinimalCovers:
    def test_matches_brute_force(self):
        """Every subset-minimal set of names whose masks cover the needed
        bits, sorted, as a search over every subset of names finds them;
        classes of names with one profile are expanded."""
        rng = random.Random(71)
        for _ in range(300):
            bits = rng.randint(1, 5)
            needed = rng.randrange(1, 1 << bits)
            names = [f"y{i}" for i in range(rng.randint(0, 7))]
            profiles = [(name, rng.randrange(1 << bits)) for name in names]
            covering = [frozenset(chosen) for size in range(len(names) + 1)
                        for chosen in combinations(names, size)
                        if needed & ~reduce(or_, (p for n, p in profiles
                                                  if n in chosen), 0) == 0]
            want = sorted((c for c in covering
                           if not any(d < c for d in covering)), key=sorted)
            assert translate._minimal_covers(needed, profiles) == want


class TestPremIsafToImpArgIaf:
    def test_thm7_dependencies(self):
        t7 = fixtures.get("thm7_prem")
        target, witness = prem_isaf_to_imp_arg_iaf(t7)
        assert target.base.fixed_args == ("p",)
        assert ImplyDisj(["q"], ["[q]=d>r"]) in target.deps
        assert ImplyDisj(["[q]=d>r"], ["q"]) in target.deps
        assert certify(t7, target, witness)

    def test_example5_certification(self):
        ex5 = fixtures.get("example5")
        target, witness = prem_isaf_to_imp_arg_iaf(ex5)
        assert len(completions_dep(target)) == 2
        assert certify(ex5, target, witness)

    def test_randomized_certification(self):
        rng = random.Random(71)
        for _ in range(25):
            isaf = random_prem_isaf(rng)
            target, witness = prem_isaf_to_imp_arg_iaf(isaf)
            assert certify(isaf, target, witness)


class TestUncheckedImpConstruction:
    def test_matches_public_constructors(self):
        """The imp-arg-IAF of a structured framework, built unchecked,
        equals its build through the validating public constructors."""
        rng = random.Random(73)
        for i in range(60):
            x = (random_rul_isaf if i % 2 else random_prem_isaf)(rng)
            to_imp = (rul_isaf_to_imp_arg_iaf if i % 2
                      else prem_isaf_to_imp_arg_iaf)
            target, witness = to_imp(x, GEN_LIMITS)
            record = isaf_module._model(x, GEN_LIMITS).record
            full, load = record.graph, record.load
            uncertain = [a for a in full.args if load[a]]
            deps = [ImplyDisj(cover, [a]) for a in uncertain
                    for cover in translate._minimal_covers(
                        load[a], [(b, load[b]) for b in uncertain
                                  if b != a])]
            public = DepArgIAF(ArgIAF([a for a in full.args if not load[a]],
                                      uncertain, full.defeats), deps)
            assert target == public
            assert hash(target) == hash(public)
            assert target.base.all_args == full.args
            assert witness == Witness.identity(full.args)


class TestTidy:
    def test_single_clash(self):
        theory = make_theory(rules=[Rule([], "p", DEFEASIBLE)],
                             premises=["p"], close_negation=True)
        source = PremISAF(theory)
        target, witness = tidy(source)
        assert is_tidy(target)
        assert Rule([], "p'", DEFEASIBLE) in target.theory.rules
        assert target.theory.knowledge_base == {"p"}
        texts = {a.text for a in generate_arguments(target.theory)}
        assert texts == {"p", "[]=d>p'"}
        assert certify(source, target, witness)

    def test_identity_on_tidy_input(self):
        t7 = fixtures.get("thm7_prem")
        target, witness = tidy(t7)
        assert target == t7
        assert all(src == dst for src, dst in witness.pairs)

    def test_tidy_input_preference_domain(self):
        theory = make_theory(premises=["p", "q"], close_negation=True)
        source = PremISAF(theory, preferences=frozenset({("p", "zz")}))
        assert is_tidy(source)
        with pytest.raises(PreferenceUnknownArgumentError):
            tidy(source)

    def test_idempotent_up_to_identity_witness(self):
        theory = make_theory(rules=[Rule([], "p", STRICT)],
                             premises=["p"], close_negation=True)
        once, _ = tidy(PremISAF(theory))
        twice, inner = tidy(once)
        assert twice == once
        assert all(src == dst for src, dst in inner.pairs)

    def test_multi_clash_rule_body(self):
        # body with two clashing formulas: mixed premise/rule derivations
        # need the partially patched rule variants
        theory = make_theory(
            rules=[Rule([], "a", STRICT), Rule([], "b", STRICT),
                   Rule(["a", "b"], "d", DEFEASIBLE)],
            premises=["a", "b"], close_negation=True)
        source = PremISAF(theory)
        n_source = len(generate_arguments(theory))
        target, witness = tidy(source)
        assert is_tidy(target)
        assert len(generate_arguments(target.theory)) == n_source == 8
        assert certify(source, target, witness)

    def test_arguments_generated_once_per_theory(self, monkeypatch):
        # both translations rewrite the source's arguments, generated once
        # with its maximal completion, and generate none of their target's,
        # for a tidy input and an untidy one alike
        calls = []

        def counting(theory, *args, **kwargs):
            calls.append(theory)
            return generate_arguments(theory, *args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("uarg") and \
                    getattr(module, "generate_arguments", None) is \
                    generate_arguments:
                monkeypatch.setattr(module, "generate_arguments", counting)
        untidy = make_theory(rules=[Rule([], "p", DEFEASIBLE)],
                             premises=["p"], close_negation=True)
        for source in (fixtures.get("thm7_prem"), PremISAF(untidy)):
            for translation in (tidy, prem_isaf_to_rul_isaf):
                calls.clear()
                translation(replace(source))  # a cold load model
                assert calls == [source.theory], translation.__name__

    def test_undercut_survives_tidying(self):
        named = Rule(["p"], "q", DEFEASIBLE)
        theory = make_theory(
            rules=[named, Rule([], "p", DEFEASIBLE), Rule([], "~n", STRICT)],
            naming={named: "n"},
            premises=["p"], close_negation=True)
        source = PremISAF(theory)
        target, witness = tidy(source)
        assert certify(source, target, witness)

    def test_randomized_nontidy_certification(self):
        rng = random.Random(73)
        for _ in range(20):
            source = random_prem_isaf(rng, max_uncertain=2, force_clash=True)
            assert not is_tidy(source)
            target, witness = tidy(source)
            assert is_tidy(target)
            assert certify(source, target, witness)


class TestPremIsafToRulIsaf:
    def test_thm7_translation(self):
        t7 = fixtures.get("thm7_prem")
        target, witness = prem_isaf_to_rul_isaf(t7)
        assert target.theory.knowledge_base == {"p"}
        assert Rule([], "q", DEFEASIBLE) in target.uncertain_rules
        completions = completion_set_of(target)
        assert sorted(tuple(af.args) for af in completions) == [
            ("[[]=d>q]=d>r", "[]=d>q", "p"), ("p",)]
        assert certify(t7, target, witness)

    def test_no_uncertain_knowledge(self):
        ex3 = fixtures.get("example3")
        source = PremISAF(ex3.theory, preferences=ex3.preferences)
        target, witness = prem_isaf_to_rul_isaf(source)
        assert not target.uncertain_rules
        assert all(src == dst for src, dst in witness.pairs)
        assert certify(source, target, witness)

    def test_example5_translation(self):
        ex5 = fixtures.get("example5")
        target, witness = prem_isaf_to_rul_isaf(ex5)
        assert Rule([], "w", DEFEASIBLE) in target.uncertain_rules
        assert len(completion_set_of(target)) == 2
        assert certify(ex5, target, witness)

    def test_uncertain_axiom_becomes_strict_rule(self):
        theory = make_theory(axioms=["a"], premises=["p"],
                             close_negation=True)
        source = PremISAF(theory, uncertain_axioms=frozenset({"a"}))
        target, witness = prem_isaf_to_rul_isaf(source)
        assert Rule([], "a", STRICT) in target.uncertain_rules
        assert certify(source, target, witness)

    def test_randomized_including_nontidy(self):
        rng = random.Random(79)
        for i in range(20):
            source = random_prem_isaf(rng, max_uncertain=3,
                                      force_clash=(i % 2 == 0))
            target, witness = prem_isaf_to_rul_isaf(source)
            assert certify(source, target, witness)


def _outcome(translation, source, limits):
    """The serialized target and witness pairs, or the exception raised,
    by type and message."""
    try:
        target, witness = translation(source, limits)[:2]
    except Exception as exc:
        return type(exc), str(exc)
    return serialize_framework(target), witness.pairs


TRANSLATIONS = ((tidy, generated_tidy),
                (prem_isaf_to_rul_isaf, two_pass_prem_isaf_to_rul_isaf))


class TestOneRewrite:
    """Tidying and premise-to-rule rewrite the source's arguments once and
    never generate their target's; the oracles generate the tidied theory's
    arguments, filter preferences through them and rewrite a second time."""

    def test_matches_the_generate_and_filter_oracle(self):
        rng = random.Random(2026)
        untidy = preferred = 0
        for i in range(100):
            source = random_prem_isaf(rng, force_clash=(i % 2 == 0))
            untidy += not is_tidy(source)
            preferred += not is_tidy(source) and bool(source.preferences)
            heights = {a.text: a.height
                       for a in generate_arguments(source.theory, GEN_LIMITS)}
            for translation, oracle in TRANSLATIONS:
                got = _outcome(translation, source, GEN_LIMITS)
                assert got == _outcome(oracle, source, GEN_LIMITS), source
                target, witness = translation(source, GEN_LIMITS)
                images = {a.text: a.height for a in
                          generate_arguments(target.theory, GEN_LIMITS)}
                assert witness.codomain == images.keys()
                assert all(heights[a] == images[b] for a, b in witness.pairs)
        assert untidy >= 50 and preferred >= 25, (untidy, preferred)

    def test_error_order_and_bounds(self):
        """An unknown preference is refused before the priming check, by
        both translations as by the oracles.  Dropping the tidied theory's
        generation loses no bound: the images are as many as the source's
        arguments and as high, so the source's generation, run first under
        the same limits, trips every bound the target's would."""
        stale = make_theory(rules=[Rule([], "p", DEFEASIBLE)],
                            premises=["p"], formulas=["p'"],
                            close_negation=True)
        refused = PremISAF(stale, preferences=frozenset({("zz", "p")}))
        for translation, oracle in TRANSLATIONS:
            for source, error in ((refused, PreferenceUnknownArgumentError),
                                  (PremISAF(stale), InvalidTheoryError)):
                with pytest.raises(error):
                    translation(source)
                assert _outcome(translation, source, GEN_LIMITS) == \
                    _outcome(oracle, source, GEN_LIMITS)

        theory = make_theory(
            rules=[Rule([], "p", DEFEASIBLE), Rule(["p"], "q", DEFEASIBLE)],
            premises=["p", "r"], close_negation=True)
        source = PremISAF(theory, uncertain_premises=frozenset({"r"}))
        arguments = generate_arguments(theory)
        n, height = len(arguments), max(a.height for a in arguments)
        for translation, _ in TRANSLATIONS:
            for tight in (Limits(max_arguments=n - 1),
                          Limits(max_depth=height - 1)):
                for _ in range(2):
                    with pytest.raises(GenerationLimitExceededError):
                        translation(source, tight)
            exact = Limits(max_arguments=n, max_depth=height)
            target, witness = translation(source, exact)
            assert len(generate_arguments(target.theory, exact)) == n
            assert certify(source, target, witness)


STRUCTURED_TRANSLATIONS = {
    RulISAF: (rul_isaf_to_imp_arg_iaf,),
    PremISAF: (prem_isaf_to_imp_arg_iaf, prem_isaf_to_rul_isaf, tidy),
}


def round_trip(source) -> bool:
    """Every structured translation of the source, certified by its
    witness against the source's completion set."""
    completions = completion_set_of(source)
    return all(check_witness(completions, completion_set_of(target),
                             witness)
               for translation in STRUCTURED_TRANSLATIONS[type(source)]
               for target, witness in [translation(source)])


class TestNoCyclicGarbage:
    """Every object a translation or a certification makes dies by
    reference count: no argument holds itself, and no search is a
    closure that refers to itself."""

    def test_structured_fixtures(self):
        sources = [fixtures.get(name) for name, fixture
                   in sorted(fixtures.REGISTRY.items())
                   if fixture.kind in ("rul-isaf", "prem-isaf")]
        assert len(sources) == 5
        with no_cyclic_garbage():
            assert all(round_trip(source) for source in sources)

    def test_arg_iaf_encodings(self):
        rng = random.Random(31)
        iafs = [random_arg_iaf(rng, max_args=5) for _ in range(20)]
        with no_cyclic_garbage():
            for iaf in iafs:
                source = completion_set_of(iaf)
                for encode in (arg_iaf_to_rul_isaf, arg_iaf_to_prem_isaf):
                    target, witness = encode(iaf)
                    assert check_witness(source, completion_set_of(target),
                                         witness)

    def test_random_frameworks(self):
        rng = random.Random(37)
        sources = [random_rul_isaf(rng) for _ in range(15)] + [
            random_prem_isaf(rng, force_clash=i % 2 == 0)
            for i in range(15)]
        assert sum(not is_tidy(s) for s in sources[15:]) >= 5
        with no_cyclic_garbage():
            assert all(round_trip(source) for source in sources)

    def test_guard_sees_a_cycle(self):
        with pytest.raises(AssertionError, match="^1 unreachable objects"):
            with no_cyclic_garbage():
                cycle = []
                cycle.append(cycle)
                del cycle
