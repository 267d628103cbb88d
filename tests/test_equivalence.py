import random

import pytest

from uarg import (
    AbstractAF,
    ArgIAF,
    CompletionSet,
    Limits,
    Witness,
    check_witness,
    completion_set_of,
    completions_arg_iaf,
    equivalence_properties_check,
    equivalent,
    fixtures,
    no_equivalent_arg_iaf,
)
from uarg.equivalence import _signatures
from uarg.errors import DomainMismatchError, SearchBoundExceededError

from framework_gen import random_arg_iaf
from oracles import (
    brute_force_equivalent,
    enumerated_no_equivalent_arg_iaf,
    recheck_equivalent,
    tuple_signatures,
)


def toggled(rng, af):
    """The member with one defeat between its arguments toggled."""
    edge = (rng.choice(af.args), rng.choice(af.args))
    return AbstractAF(af.args, set(af.defeats) ^ {edge})


def toggle_defeat(rng, completions):
    """The set with one defeat toggled in one non-empty member."""
    members = list(completions)
    i = rng.choice([i for i, af in enumerate(members) if af.args])
    members[i] = toggled(rng, members[i])
    return CompletionSet(members)


def swap_defeats(rng, completions):
    """The set with (a,b),(c,d) replaced by (a,d),(c,b) in one member, so
    every argument keeps its degrees there; None if no member allows it."""
    members = list(completions)
    for i in rng.sample(range(len(members)), len(members)):
        af = members[i]
        edges = [e for e in af.defeats if e[0] != e[1]]
        swaps = [(e, f) for e in edges for f in edges
                 if e < f and len({*e, *f}) == 4
                 and (e[0], f[1]) not in af.defeats
                 and (f[0], e[1]) not in af.defeats]
        if swaps:
            (a, b), (c, d) = rng.choice(swaps)
            defeats = set(af.defeats) - {(a, b), (c, d)} | {(a, d), (c, b)}
            members[i] = AbstractAF(af.args, defeats)
            return CompletionSet(members)
    return None


THM10_WITNESS = Witness({
    "[]=d>p_b": "b",
    "[[]=d>p_b]=d>p_a": "a",
    "[[]=d>p_b]=d>p_c": "c",
})


def thm10_sets():
    return (completion_set_of(fixtures.get("thm10_rul")),
            completion_set_of(fixtures.get("thm9_imp")))


def random_members(rng, names, count):
    """Members over random subsets of names, some argument-free, with
    random defeats, self-defeats included."""
    members = []
    for _ in range(count):
        args = rng.sample(names, rng.randint(0, len(names)))
        pairs = [(s, t) for s in args for t in args]
        members.append(AbstractAF(args, rng.sample(pairs, rng.randint(
            0, len(pairs)))))
    return members


class TestSignatureCodes:
    """The integer-coded occurrence signatures order and group arguments
    exactly as the tuple-valued ones, within a set and across two sets
    coded with one union size."""

    @staticmethod
    def assert_order_isomorphic(*sets):
        size = len(sets[0].argument_union())
        pairs = []
        for completions in sets:
            assert len(completions.argument_union()) == size
            codes = _signatures(completions, size)
            tuples = tuple_signatures(completions)
            assert codes.keys() == tuples.keys()
            pairs += [(codes[a], tuples[a]) for a in codes]
        for code_x, tuple_x in pairs:
            for code_y, tuple_y in pairs:
                assert (code_x < code_y) == (tuple_x < tuple_y)
                assert (code_x == code_y) == (tuple_x == tuple_y)

    def test_random_sets(self):
        rng = random.Random(211)
        for _ in range(150):
            names = [f"a{i}" for i in range(rng.randint(1, 7))]
            members = random_members(rng, names, rng.randint(1, 6))
            members += [AbstractAF(names), AbstractAF()]
            source = CompletionSet(members)
            target = toggle_defeat(rng, source)
            self.assert_order_isomorphic(source, target)

    def test_every_digit_at_its_maximum(self):
        # 16 arguments, the default max_equiv_args.  In the complete member
        # (all 256 defeats) every degree is 16 and every argument defeats
        # itself.  In the star member a0 defeats every argument, so its
        # out-degree is 16 where a1's in-degree is one above a0's: a code
        # that carried the out-degree into the in-degree digit would order
        # a0 after a1.
        names = [f"a{i}" for i in range(16)]
        complete = AbstractAF(names, [(s, t) for s in names for t in names])
        star = AbstractAF(names, [("a0", t) for t in names] + [("a2", "a1")])
        assert len(complete.defeats) == 256
        self.assert_order_isomorphic(
            CompletionSet([complete, star, AbstractAF()]))
        rng = random.Random(16)
        source = CompletionSet([complete, star, AbstractAF()]
                               + random_members(rng, names, 5))
        target = Witness({a: f"w{a}" for a in names}).apply(source)
        self.assert_order_isomorphic(source, toggle_defeat(rng, source))
        got = equivalent(source, target)
        want = recheck_equivalent(source, target)
        assert got.equivalent
        assert (got.witness, got.nodes, got.prunes) == \
            (want.witness, want.nodes, want.prunes)

    def test_union_above_the_default_bound(self):
        rng = random.Random(20)
        names = [f"a{i}" for i in range(20)]
        limits = Limits(max_equiv_args=20)
        source = CompletionSet(random_members(rng, names, 6)
                               + [AbstractAF(names)])
        target = toggle_defeat(rng, source)
        self.assert_order_isomorphic(source, target)
        verdicts = []
        for other in (source, target):
            renamed = Witness({a: f"w{a}" for a in names}).apply(other)
            got = equivalent(source, renamed, limits)
            want = recheck_equivalent(source, renamed, limits)
            assert (got.verdict, got.witness, got.nodes, got.prunes) == \
                (want.verdict, want.witness, want.nodes, want.prunes)
            verdicts.append(got.equivalent)
        assert verdicts == [True, False]


class TestCheckWitness:
    def test_thm10_witness_accepted(self):
        source, target = thm10_sets()
        assert check_witness(source, target, THM10_WITNESS)

    def test_identity_witness(self):
        s = completion_set_of(fixtures.get("example1"))
        assert check_witness(s, s, Witness.identity(s.argument_union()))

    def test_perturbed_witness_rejected(self):
        source, target = thm10_sets()
        swapped = Witness({
            "[]=d>p_b": "a",
            "[[]=d>p_b]=d>p_a": "b",
            "[[]=d>p_b]=d>p_c": "c",
        })
        assert not check_witness(source, target, swapped)

    def test_domain_mismatch(self):
        source, target = thm10_sets()
        with pytest.raises(DomainMismatchError):
            check_witness(source, target, Witness({"x": "a"}))

    def test_non_injective_mapping_rejected(self):
        s = CompletionSet([AbstractAF(["a", "b"])])
        t = CompletionSet([AbstractAF(["x", "y"])])
        with pytest.raises(DomainMismatchError):
            # codomain collapses to one element, so it cannot match
            check_witness(s, t, Witness({"a": "x", "b": "x"}))


class TestEquivalent:
    def test_weak_equivalence_counterexample_is_negative(self):
        left, right = fixtures.get("remark_weak_equiv")
        result = equivalent(left, right)
        assert not result.equivalent

    def test_reflexive_with_identity(self):
        s = completion_set_of(fixtures.get("example1"))
        result = equivalent(s, s)
        assert result.equivalent
        assert all(src == dst for src, dst in result.witness.pairs)

    def test_thm10_pair_equivalent(self):
        source, target = thm10_sets()
        result = equivalent(source, target)
        assert result.equivalent
        assert check_witness(source, target, result.witness)

    def test_witness_always_validates(self):
        rng = random.Random(83)
        for _ in range(30):
            s = completions_arg_iaf(random_arg_iaf(rng))
            t = completions_arg_iaf(random_arg_iaf(rng))
            result = equivalent(s, t)
            if result.equivalent:
                assert check_witness(s, t, result.witness)

    def test_matches_brute_force(self):
        rng = random.Random(89)
        for _ in range(60):
            s = completions_arg_iaf(random_arg_iaf(rng, max_args=3))
            t = completions_arg_iaf(random_arg_iaf(rng, max_args=3))
            expected = brute_force_equivalent(s, t) is not None
            assert equivalent(s, t).equivalent == expected

    def test_matches_brute_force_on_arbitrary_sets(self):
        # completion sets here are arbitrary framework collections, not
        # derived from any incomplete framework, over unions up to 6
        rng = random.Random(93)

        def random_set():
            names = ["a", "b", "c", "d", "e", "f"][:rng.randint(1, 6)]
            out = []
            for _ in range(rng.randint(1, 3)):
                kept = [n for n in names if rng.random() < 0.8]
                defeats = [(s, t) for s in kept for t in kept
                           if rng.random() < 0.3]
                out.append(AbstractAF(kept, defeats))
            return CompletionSet(out)

        agreements = {True: 0, False: 0}
        for _ in range(80):
            s, t = random_set(), random_set()
            if rng.random() < 0.3:
                renaming = {n: f"r{i}" for i, n in
                            enumerate(sorted(s.argument_union()))}
                t = Witness(renaming).apply(s)
            expected = brute_force_equivalent(s, t) is not None
            result = equivalent(s, t)
            assert result.equivalent == expected
            agreements[expected] += 1
        assert agreements[True] >= 10 and agreements[False] >= 10

    def test_renaming_invariance(self):
        rng = random.Random(97)
        for _ in range(30):
            iaf = random_arg_iaf(rng)
            s = completions_arg_iaf(iaf)
            renaming = {n: f"z{i}" for i, n in
                        enumerate(sorted(s.argument_union()))}
            if not renaming:
                continue
            w = Witness(renaming)
            t = w.apply(s)
            result = equivalent(s, t)
            assert result.equivalent
            assert check_witness(s, t, result.witness)

    def test_search_bound(self):
        s = CompletionSet([AbstractAF([f"a{i}" for i in range(6)])])
        with pytest.raises(SearchBoundExceededError,
                           match="union of 6 exceeds max_equiv_args=5; "
                                 "raise it with --max-equiv-args or "
                                 "UARG_MAX_EQUIV_ARGS"):
            equivalent(s, s, Limits(max_equiv_args=5))

    def test_matches_full_recheck_search(self):
        # Relabelled pairs and degree-preserving near misses of three kinds
        # of sets: completion sets, arbitrary framework sets, and sets of
        # equally shaped members over one argument set (where only the
        # per-member defeats, self-defeats included, tell members apart).
        # The narrowed masks must give the same verdict, witness, nodes
        # and prunes as re-checking every member pair at every node.
        rng = random.Random(107)
        found = refuted = prunes = 0
        for trial in range(400):
            n = rng.randint(3, 8)
            names = [f"v{i}" for i in range(n)]
            if trial % 4 == 0:
                uncertain = rng.sample(names, rng.randint(1, min(n, 4)))
                defeats = [(a, b) for a in names for b in names
                           if rng.random() < 0.3]
                source = completions_arg_iaf(
                    ArgIAF(set(names) - set(uncertain), uncertain, defeats))
            elif trial % 4 == 1:
                source = CompletionSet(
                    AbstractAF(kept, [(a, b) for a in kept for b in kept
                                      if rng.random() < 0.3])
                    for kept in (rng.sample(names, rng.randint(1, n))
                                 for _ in range(rng.randint(2, 12))))
            else:
                names = names[:rng.randint(2, 5)]
                pairs = [(a, b) for a in names for b in names]
                k = rng.randint(1, len(names))
                source = CompletionSet(
                    AbstractAF(names, rng.sample(pairs, k))
                    for _ in range(rng.randint(2, 6)))
            names = sorted(source.argument_union())
            n = len(names)
            fresh = [f"w{i}" for i in range(n)]
            rng.shuffle(fresh)
            target = Witness(dict(zip(names, fresh))).apply(source)
            if rng.random() < 0.5:
                target = swap_defeats(rng, target) or \
                    toggle_defeat(rng, target)
            got = equivalent(source, target)
            want = recheck_equivalent(source, target)
            assert (got.verdict, got.witness, got.nodes, got.prunes) == \
                (want.verdict, want.witness, want.nodes, want.prunes)
            found += got.equivalent
            refuted += not got.equivalent and got.nodes > 0
            prunes += got.prunes
        # refutations by the search itself, not by the signature filter
        assert found >= 10 and refuted >= 10 and prunes > 0

    def test_identity_only_mode(self):
        s = completion_set_of(fixtures.get("example1"))
        assert equivalent(s, s, identity_only=True).equivalent
        renamed = Witness({n: n.upper() for n in s.argument_union()}).apply(s)
        assert not equivalent(s, renamed, identity_only=True).equivalent
        assert equivalent(s, renamed).equivalent


class TestNoEquivalentArgIaf:
    def test_chain_fixture_not_expressible(self):
        t3 = completion_set_of(fixtures.get("thm3_rul"))
        assert no_equivalent_arg_iaf(t3, 3)

    def test_premise_fixture_not_expressible(self):
        t7 = completion_set_of(fixtures.get("thm7_prem"))
        assert no_equivalent_arg_iaf(t7, 3)

    def test_five_completion_fixture_not_expressible(self):
        t9 = completion_set_of(fixtures.get("thm9_imp"))
        assert no_equivalent_arg_iaf(t9, 3)

    def test_actual_completion_set_is_found(self):
        iaf = ArgIAF(["a"], ["b"], [("b", "a")])
        assert not no_equivalent_arg_iaf(completions_arg_iaf(iaf), 2)

    def test_matches_unpruned_search_on_tiny_instances(self):
        rng = random.Random(101)
        all_candidates = []
        for n in range(3):
            names = ["a", "b"][:n]
            for dmask in range(1 << (n * n)):
                defeats = [(names[i], names[j]) for i in range(n)
                           for j in range(n) if dmask >> (i * n + j) & 1]
                for kmask in range(1 << n):
                    unc = {names[i] for i in range(n) if kmask >> i & 1}
                    all_candidates.append(
                        ArgIAF(set(names) - unc, unc, defeats))

        def brute(target):
            for cand in all_candidates:
                if brute_force_equivalent(completions_arg_iaf(cand),
                                          target) is not None:
                    return False
            return True

        for _ in range(25):
            target = completions_arg_iaf(random_arg_iaf(rng, max_args=2))
            assert no_equivalent_arg_iaf(target, 2) == brute(target)

    def test_bound_check(self):
        t3 = completion_set_of(fixtures.get("thm3_rul"))
        with pytest.raises(SearchBoundExceededError,
                           match="max_args=7 exceeds max_search_args=6; "
                                 "raise it with --max-search-args or "
                                 "UARG_MAX_SEARCH_ARGS"):
            no_equivalent_arg_iaf(t3, 7)

    def test_matches_enumeration_oracle(self):
        # Each target as-is, with one defeat toggled, with one member
        # dropped, and with a non-full member replaced by a toggled copy of
        # the full one; the last two reach the count and full-member exits.
        rng = random.Random(109)
        exits = {"union": 0, "count": 0, "full": 0}
        verdicts = {True: 0, False: 0}
        for _ in range(300):
            base = completions_arg_iaf(random_arg_iaf(rng, max_args=4))
            members = list(base)
            variants = [base]
            if any(af.args for af in members):
                variants.append(toggle_defeat(rng, base))
            if len(members) > 2:
                variants.append(CompletionSet(members[:1] + members[2:]))
                full = max(members, key=lambda af: len(af.args))
                partial = rng.choice([af for af in members if af != full])
                variants.append(CompletionSet(
                    toggled(rng, full) if af == partial else af
                    for af in members))
            for target in variants:
                union = target.argument_union()
                fixed = union.intersection(*(af.args for af in target))
                n_full = sum(len(af.args) == len(union) for af in target)
                for max_args in (3, 4, 5):
                    got = no_equivalent_arg_iaf(target, max_args)
                    assert got == enumerated_no_equivalent_arg_iaf(
                        target, max_args)
                    verdicts[got] += 1
                    if len(union) > max_args:
                        exits["union"] += 1
                    elif len(target) & (len(target) - 1):
                        exits["count"] += 1
                    elif len(target) == 1 << len(union - fixed) \
                            and n_full == 2:
                        exits["full"] += 1
        assert all(exits.values()), exits
        assert verdicts[True] >= 100 and verdicts[False] >= 100


class TestPropertiesCheck:
    def test_reflexive_symmetric_transitive(self):
        s = completion_set_of(fixtures.get("example1"))
        t = Witness({n: n.upper() for n in s.argument_union()}).apply(s)
        u = Witness({n: n + "_2" for n in s.argument_union()}).apply(s)
        assert equivalence_properties_check(s, t, u)

    def test_composition_across_translations(self):
        from uarg import arg_iaf_to_rul_isaf, rul_isaf_to_imp_arg_iaf

        iaf = fixtures.get("example1")
        s = completion_set_of(iaf)
        isaf, w1 = arg_iaf_to_rul_isaf(iaf)
        mid = completion_set_of(isaf)
        imp, w2 = rul_isaf_to_imp_arg_iaf(isaf)
        end = completion_set_of(imp)
        assert check_witness(s, end, w1.compose(w2))
        assert equivalence_properties_check(s, mid, end)
