import random
from collections import Counter
from itertools import chain

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
    completions_dep,
    equivalence_properties_check,
    equivalent,
    fixtures,
    no_equivalent_arg_iaf,
)
from uarg import equivalence
from uarg.equivalence import _KeyTables, _member_digits
from uarg.errors import (
    DomainMismatchError,
    SearchBoundExceededError,
    UncertaintyBoundExceededError,
)

from framework_gen import (
    nand_cut_cases,
    no_cyclic_garbage,
    no_member_built,
    random_arg_iaf,
)
from oracles import (
    applied_check_witness,
    as_pairs,
    brute_force_equivalent,
    enumerated_no_equivalent_arg_iaf,
    member_masks,
    members_in_key_order,
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


def relabelled_or_near_miss(rng, source):
    """The source under a shuffled renaming, half the time with two
    defeats swapped (one defeat toggled if no swap keeps degrees)."""
    names = sorted(source.argument_union())
    fresh = [f"w{i}" for i in range(len(names))]
    rng.shuffle(fresh)
    target = Witness(dict(zip(names, fresh))).apply(source)
    if rng.random() < 0.5:
        target = swap_defeats(rng, target) or toggle_defeat(rng, target)
    return target


def row_blocks(completions):
    """Members per row block of a candidate matrix whose target is
    ``completions``, restated: its shape classes in sorted order, merged
    until a block holds at least ``_BLOCK_MEMBERS`` members."""
    sizes = Counter((len(af.args), len(af.defeats)) for af in completions)
    blocks = []
    for shape in sorted(sizes):
        if not blocks or blocks[-1] >= equivalence._BLOCK_MEMBERS:
            blocks.append(0)
        blocks[-1] += sizes[shape]
    return blocks


def assert_matches_recheck(source, target):
    """The search and the full recheck search agree in verdict, witness,
    nodes and prunes."""
    got = equivalent(source, target)
    want = recheck_equivalent(source, target)
    assert (got.verdict, got.witness, got.nodes, got.prunes) == \
        (want.verdict, want.witness, want.nodes, want.prunes)
    return got


def failed_narrowings(monkeypatch):
    """For each ``_narrow`` call from here on, in order, whether it
    emptied a row."""
    failed = []
    narrow = equivalence._narrow

    def counted(*args):
        narrowed = narrow(*args)
        failed.append(narrowed is None)
        return narrowed

    monkeypatch.setattr(equivalence, "_narrow", counted)
    return failed


def assert_recheck_trials(monkeypatch):
    """Relabelled pairs and degree-preserving near misses of three kinds
    of sets: completion sets, arbitrary framework sets, and sets of
    equally shaped members over one argument set (where only the
    per-member defeats, self-defeats included, tell members apart).  The
    narrowed candidate matrix must give the same verdict, witness, nodes
    and prunes as re-checking every member pair at every node.  The
    search counts a node per narrowing and a prune per failed one, and
    checks no witness itself: none goes through ``_or_images``, and each
    passes both witness checks afterwards."""
    or_images = TestIdentityBitPermutation.counted_or_images(monkeypatch)
    failed = failed_narrowings(monkeypatch)
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
        target = relabelled_or_near_miss(rng, source)
        del failed[:]
        got = assert_matches_recheck(source, target)
        assert or_images == []
        assert (got.nodes, got.prunes) == (len(failed), sum(failed))
        if got.equivalent:
            assert check_witness(source, target, got.witness)
            assert applied_check_witness(source, target, got.witness)
            del or_images[:]
        found += got.equivalent
        refuted += not got.equivalent and got.nodes > 0
        prunes += got.prunes
    # refutations by the search itself, not by the signature filter
    assert found >= 10 and refuted >= 10 and prunes > 0


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


def assert_order_isomorphic(*sets):
    """The integer-coded signatures of sets coded with one union size
    order and group arguments as the tuple-valued ones do."""
    size = len(sets[0].argument_union())
    pairs = []
    for completions in sets:
        assert len(completions.argument_union()) == size
        codes = _KeyTables(completions, size).signatures()
        tuples = tuple_signatures(completions)
        assert codes.keys() == tuples.keys()
        pairs += [(codes[a], tuples[a]) for a in codes]
    for code_x, tuple_x in pairs:
        for code_y, tuple_y in pairs:
            assert (code_x < code_y) == (tuple_x < tuple_y)
            assert (code_x == code_y) == (tuple_x == tuple_y)


class TestSignatureCodes:
    """The integer-coded occurrence signatures order and group arguments
    exactly as the tuple-valued ones, within a set and across two sets
    coded with one union size."""

    def test_random_sets(self):
        rng = random.Random(211)
        for _ in range(150):
            names = [f"a{i}" for i in range(rng.randint(1, 7))]
            members = random_members(rng, names, rng.randint(1, 6))
            members += [AbstractAF(names), AbstractAF()]
            source = CompletionSet(members)
            target = toggle_defeat(rng, source)
            assert_order_isomorphic(source, target)

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
        assert_order_isomorphic(
            CompletionSet([complete, star, AbstractAF()]))
        rng = random.Random(16)
        source = CompletionSet([complete, star, AbstractAF()]
                               + random_members(rng, names, 5))
        target = Witness({a: f"w{a}" for a in names}).apply(source)
        assert_order_isomorphic(source, toggle_defeat(rng, source))
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
        assert_order_isomorphic(source, target)
        verdicts = []
        for other in (source, target):
            renamed = Witness({a: f"w{a}" for a in names}).apply(other)
            got = equivalent(source, renamed, limits)
            want = recheck_equivalent(source, renamed, limits)
            assert (got.verdict, got.witness, got.nodes, got.prunes) == \
                (want.verdict, want.witness, want.nodes, want.prunes)
            verdicts.append(got.equivalent)
        assert verdicts == [True, False]

    def test_codes_two_words_wide(self):
        # 2 R^5 first needs more than 64 bits at a union of 6,208
        # arguments.  Sorted by code, neighbouring signatures are in the
        # tuple order, and equal exactly when their tuples are.
        names = [f"a{i}" for i in range(6208)]
        chain = [(names[i], names[i + 1]) for i in range(0, 200, 3)]
        full = AbstractAF(names, chain + [("a7", "a7")])
        half = AbstractAF(names[:3000], chain[:40])
        every_other = AbstractAF(names[::2])
        completions = CompletionSet([full, half, every_other])
        tables = _KeyTables(completions, len(names))
        assert tables.code_words == 2
        codes = tables.signatures()
        tuples = tuple_signatures(completions)
        assert codes.keys() == tuples.keys()
        pairs = sorted((codes[a], tuples[a]) for a in codes)
        assert any(c >> 64 for code, _ in pairs for c in code)
        for (code_x, tuple_x), (code_y, tuple_y) in zip(pairs, pairs[1:]):
            assert tuple_x <= tuple_y
            assert (code_x == code_y) == (tuple_x == tuple_y)


def wide_set():
    """A chain over 70 arguments with a self-defeat, three restrictions
    of it, and the empty member: keys wider than one 64-bit word."""
    names = [f"a{i}" for i in range(70)]
    chain = [(names[i], names[i + 1]) for i in range(69)] + [("a0", "a0")]
    return CompletionSet(
        AbstractAF(kept, [(s, t) for s, t in chain if s in kept and t in kept])
        for kept in (names, names[:40], names[::2], []))


def key_table_sets():
    """Restricted sets, Nand-cut sets, sets with a member that lacks a
    defeat between its arguments, arbitrary sets with self-defeats, the
    empty set, the set of the empty member, and a 70-argument union."""
    rng = random.Random(41)
    sets = []
    for _ in range(60):
        source = completions_arg_iaf(random_arg_iaf(rng, max_args=5))
        sets += [source, swap_defeats(rng, source)]
    sets += [completions_dep(diaf) for diaf, _, _ in nand_cut_cases()]
    for _ in range(30):
        names = [f"a{i}" for i in range(rng.randint(1, 7))]
        sets.append(CompletionSet(random_members(rng, names,
                                                 rng.randint(1, 6))))
    wide = wide_set()
    sets += [CompletionSet(), CompletionSet([AbstractAF()]), wide,
             toggle_defeat(rng, wide)]
    return [cs for cs in sets if cs is not None]


class TestKeyTables:
    """Shapes, signatures and the member digits of the columns read from
    the packed keys agree with the members they describe, and reading
    them builds no member."""

    def test_match_member_oracles(self):
        kinds = set()
        for completions in key_table_sets():
            size = len(completions.argument_union())
            with no_member_built():
                tables = _KeyTables(completions, size)
                shapes = tables.shapes
                digits = _member_digits(tables.column + tables.held,
                                        len(shapes), 8 * tables.words)
                tables.signatures()
            members = members_in_key_order(completions)
            assert shapes == [(len(af.args), len(af.defeats))
                              for af in members]
            # one run of digits per entry, the last member first
            count, graph = len(shapes), completions._graph
            masks = [int(digits[i:i + count], 2)
                     for i in range(0, len(digits), count or 1)]
            n = len(graph.args)
            assert (dict(zip(graph.args, masks[:n])),
                    dict(zip(graph.defeats, masks[n:]))) == \
                member_masks(members)
            assert_order_isomorphic(completions)
            kinds.add((lacks_a_defeat(completions), tables.words))
        assert kinds >= {(False, 1), (True, 1), (False, 2), (True, 2)}

    def test_wide_union(self):
        """Fields two words wide give the full recheck search's verdict,
        witness, nodes and prunes."""
        limits = Limits(max_equiv_args=70)
        source = wide_set()
        renamed = Witness({a: "w" + a[1:] for a in
                           source.argument_union()}).apply(source)
        verdicts = []
        for target in (renamed, toggle_defeat(random.Random(70), renamed)):
            assert _KeyTables(target, 70).words == 2
            got = equivalent(source, target, limits)
            want = recheck_equivalent(source, target, limits)
            assert (got.verdict, got.witness, got.nodes, got.prunes) == \
                (want.verdict, want.witness, want.nodes, want.prunes)
            verdicts.append(got.equivalent)
        assert verdicts == [True, False]
        with pytest.raises(SearchBoundExceededError):
            equivalent(source, renamed, Limits(max_equiv_args=69))

    def test_equivalent_builds_no_member(self):
        """Both verdicts, by search and by the identity alone, on
        restricted sets whose members are never built."""
        rng = random.Random(43)
        seen = set()
        for _ in range(80):
            iaf = random_arg_iaf(rng, max_args=5)
            names = iaf.fixed_args + iaf.uncertain_args
            if not names:
                continue
            upper = {a: a.upper() for a in names}
            edge = (rng.choice(names), rng.choice(names))
            variants = []
            for rename in (lambda a: a, upper.__getitem__):
                for defeats in (iaf.defeats, set(iaf.defeats) ^ {edge}):
                    variants.append(completions_arg_iaf(ArgIAF(
                        map(rename, iaf.fixed_args),
                        map(rename, iaf.uncertain_args),
                        [(rename(s), rename(t)) for s, t in defeats])))
            source = completions_arg_iaf(iaf)
            cases = [(target, identity_only) for target in variants
                     for identity_only in (False, True)]
            with no_member_built():
                results = [equivalent(source, target,
                                      identity_only=identity_only)
                           for target, identity_only in cases]
            for (target, identity_only), got in zip(cases, results):
                if identity_only:
                    assert got.equivalent == (as_pairs(source)
                                              == as_pairs(target))
                else:
                    want = recheck_equivalent(source, target)
                    assert (got.verdict, got.witness, got.nodes,
                            got.prunes) == (want.verdict, want.witness,
                                            want.nodes, want.prunes)
                seen.add((identity_only, got.equivalent))
        assert seen == {(False, False), (False, True), (True, False),
                        (True, True)}


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


def witness_outcome(check, source, target, witness):
    try:
        return check(source, target, witness)
    except DomainMismatchError:
        return DomainMismatchError


def lacks_a_defeat(completions):
    """True iff some member lacks a defeat that another member holds
    between two of its arguments."""
    union = {d for af in completions for d in af.defeats}
    return any((s, t) in union and (s, t) not in af.defeat_set
               for af in completions for s in af.args for t in af.args)


class TestCheckWitnessPaths:
    """check_witness against its definition, applied_check_witness, on
    restricted sets, on their documents read back, on Nand-cut sets and
    on sets with a member that lacks a defeat between its arguments."""

    @staticmethod
    def witnesses(rng, base):
        """The base bijection; it followed by a random permutation of its
        image; that with one transposition; that with two names sent to
        one image."""
        names = [src for src, _ in base.pairs]
        images = rng.sample([dst for _, dst in base.pairs], len(names))
        out = [base, Witness(zip(names, images))]
        if len(names) >= 2:
            i, j = rng.sample(range(len(names)), 2)
            images[i], images[j] = images[j], images[i]
            out.append(Witness(zip(names, images)))
            images[i] = images[j]
            out.append(Witness(zip(names, images)))
        return out

    def test_matches_applied_definition(self, monkeypatch):
        from uarg import (
            DepArgIAF,
            Nand,
            arg_iaf_to_prem_isaf,
            arg_iaf_to_rul_isaf,
            completions_dep,
            completions_prem,
            completions_rul,
        )
        from uarg.documents import (
            parse_completion_set,
            serialize_completion_set,
        )

        def read_back(completions):
            return parse_completion_set(serialize_completion_set(completions))

        cases = []  # (source, target, base bijection)
        for seed in range(200):
            rng = random.Random(seed)
            iaf = random_arg_iaf(rng, max_args=5)
            source = completions_arg_iaf(iaf)
            rul, to_rul = arg_iaf_to_rul_isaf(iaf)
            prem, to_prem = arg_iaf_to_prem_isaf(iaf)
            identity = Witness.identity(source.argument_union())
            for target, base in ((source, identity),
                                 (completions_rul(rul), to_rul),
                                 (completions_prem(prem), to_prem)):
                public = CompletionSet(target.members)
                cases.append((source, target, base))
                cases.append((source, public, base))
                cases.append((public, source, base.invert()))
            if iaf.uncertain_args:
                # no member holds every uncertain argument
                cut = completions_dep(
                    DepArgIAF(iaf, [Nand(iaf.uncertain_args)]))
                assert not any(af.arg_set.issuperset(iaf.uncertain_args)
                               for af in cut)
                cut_identity = Witness.identity(cut.argument_union())
                cases.append((cut, cut, cut_identity))
                cases.append((cut, read_back(cut), cut_identity))
            swapped = swap_defeats(rng, source)
            if swapped is not None:
                # with another member, the swapped one lacks a defeat
                # between its arguments, as in the near-miss sets of
                # the equivalence search
                cases.append((swapped, swapped, identity))
                cases.append((source, swapped, identity))
                cases.append((swapped, read_back(swapped), identity))
                cases.append((swapped, to_rul.apply(swapped), to_rul))
            if len(identity.pairs) >= 2:
                # a merging map onto its own image passes the codomain
                # test and fails the bijectivity test
                merge = self.witnesses(rng, identity)[-1]
                cases.append((source, merge.apply(source), merge))

        def no_apply(self, completions):
            raise AssertionError("check_witness called Witness.apply")

        rng = random.Random(11)
        seen = {(lacks, outcome): 0 for lacks in (True, False)
                for outcome in (True, False, DomainMismatchError)}
        for source, target, base in cases:
            lacks = lacks_a_defeat(source) or lacks_a_defeat(target)
            for witness in self.witnesses(rng, base):
                want = witness_outcome(applied_check_witness, source, target,
                                       witness)
                with monkeypatch.context() as patch:
                    patch.setattr(Witness, "apply", no_apply)
                    got = witness_outcome(check_witness, source, target,
                                          witness)
                assert got == want, (source.members, target.members,
                                     witness)
                seen[lacks, want] += 1
        # sets with and without a lacking member accept, reject and raise
        assert all(count >= 20 for count in seen.values()), seen


class TestIdentityBitPermutation:
    """A witness that sends every union-graph entry to the target's entry
    at the same place moves no key bit: the sets are compared by their
    keys, and only another witness is pushed through ``_or_images``."""

    @staticmethod
    def counted_or_images(monkeypatch):
        calls = []
        or_images = equivalence._or_images

        def counted(values, masks):
            calls.append(len(values))
            return or_images(values, masks)

        monkeypatch.setattr(equivalence, "_or_images", counted)
        return calls

    def test_identity_between_different_sets_is_refused(self, monkeypatch):
        calls = self.counted_or_images(monkeypatch)
        full = AbstractAF(["a", "b"], [("a", "b")])
        source = CompletionSet([AbstractAF(["a"]), full])
        target = CompletionSet([AbstractAF(["b"]), full])
        assert (source._graph, len(source)) == (target._graph, len(target))
        identity = Witness.identity(["a", "b"])
        assert not check_witness(source, target, identity)
        assert not applied_check_witness(source, target, identity)
        assert check_witness(source, source, identity)
        assert calls == []

    def test_automorphism_is_accepted(self, monkeypatch):
        calls = self.counted_or_images(monkeypatch)
        both = CompletionSet([AbstractAF(["a", "b"], [("a", "b")]),
                              AbstractAF(["a", "b"], [("b", "a")])])
        swap = Witness({"a": "b", "b": "a"})
        assert check_witness(both, both, swap)
        assert applied_check_witness(both, both, swap)
        assert len(calls) == 1

    def test_both_branches_match_applied_definition(self, monkeypatch):
        calls = self.counted_or_images(monkeypatch)
        seen = Counter()
        for seed in range(300):
            rng = random.Random(seed)
            iaf = random_arg_iaf(rng, max_args=5)
            names = sorted(iaf.all_args)
            identity = Witness.identity(names)
            shuffled = Witness(zip(names, rng.sample(names, len(names))))
            members = list(completions_arg_iaf(iaf))
            full = max(members, key=lambda af: len(af.args))
            others = [af for af in members if af != full]
            source = CompletionSet(members)
            pairs = [(source, source), (source, shuffled.apply(source))]
            if len(others) >= 2:  # one union graph, one member swapped
                i, j = rng.sample(range(len(others)), 2)
                left, right = (CompletionSet([full] + others[:k]
                                             + others[k + 1:])
                               for k in (i, j))
                pairs += [(left, right), (left, shuffled.apply(right))]
            for left, right in pairs:
                for witness in (identity, shuffled):
                    m = witness.mapping
                    graph = left._graph
                    stays = [m[a] for a in graph.args] == [
                        *right._graph.args] and [
                        (m[s], m[t]) for s, t in graph.defeats] == [
                        *right._graph.defeats]
                    del calls[:]
                    got = witness_outcome(check_witness, left, right,
                                          witness)
                    assert got == witness_outcome(applied_check_witness,
                                                  left, right, witness)
                    assert not (stays and calls)
                    branch = "keys" if stays else \
                        "or_images" if calls else "graph"
                    seen[branch, got] += 1
        # both branches accept and refuse
        assert all(seen[branch, outcome] >= 20
                   for branch in ("keys", "or_images")
                   for outcome in (True, False)), seen


class TestNoCyclicGarbage:
    def test_search_leaves_none_with_either_verdict(self):
        rng = random.Random(113)
        pairs = [thm10_sets()]
        while len(pairs) < 40:
            source = completions_arg_iaf(random_arg_iaf(rng, max_args=5))
            if source.argument_union():
                pairs.append((source, relabelled_or_near_miss(rng, source)))
        with no_cyclic_garbage():
            results = [equivalent(s, t) for s, t in pairs]
            assert all(check_witness(s, t, r.witness)
                       for (s, t), r in zip(pairs, results) if r.equivalent)
        searched = Counter(r.equivalent for r in results if r.nodes)
        assert searched[True] >= 10 and searched[False] >= 5, searched


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

    def test_identity_only_skips_search_bound(self):
        # no search runs, so the search bound does not apply
        s = completion_set_of(fixtures.get("example1"))
        assert len(s.argument_union()) == 3
        tight = Limits(max_equiv_args=1)
        result = equivalent(s, s, tight, identity_only=True)
        assert result.equivalent and result.nodes == 1
        assert not no_equivalent_arg_iaf(s, 3, tight)
        with pytest.raises(SearchBoundExceededError):
            equivalent(s, s, tight)

    def test_matches_full_recheck_search(self, monkeypatch):
        assert_recheck_trials(monkeypatch)

    def test_block_per_shape_matches_full_recheck_search(self,
                                                         monkeypatch):
        # every shape class its own row block: many blocks, each as wide
        # as its class
        monkeypatch.setattr(equivalence, "_BLOCK_MEMBERS", 1)
        assert_recheck_trials(monkeypatch)

    def test_two_row_blocks_match_full_recheck_search(self):
        # Sets of 65 to 128 members close a row block at 64 target
        # members, so most have two blocks.  Arbitrary members lack
        # defeats that others hold, so their keys are wider than a matrix
        # field; completion sets hold every defeat between their
        # arguments, so theirs are not.
        rng = random.Random(113)
        two = wide = 0
        for trial in range(24):
            names = [f"v{i}" for i in range(rng.randint(9, 11))]
            if trial % 2:
                uncertain = rng.sample(names, 7)  # 128 members
                defeats = [(a, b) for a in names for b in names
                           if rng.random() < 0.7]
                source = completions_arg_iaf(ArgIAF(
                    set(names) - set(uncertain), uncertain, defeats))
            else:
                source = CompletionSet(random_members(
                    rng, names, rng.randint(70, 128)))
            assert 65 <= len(source) <= 128
            target = relabelled_or_near_miss(rng, source)
            blocks = row_blocks(target)  # target members per block
            width, field = max(blocks), max(blocks) // 8 + 1
            if len(blocks) == 2:  # fields as wide as the wider block
                two += 1
                size = len(source.argument_union())
                _, every, _, _, _ = equivalence._candidate_matrix(
                    _KeyTables(source, size), _KeyTables(target, size))
                assert every == int.from_bytes(((1 << width) - 1).to_bytes(
                    field, "little") * len(source), "little")
            wide += max(source._keys).bit_length() > 8 * field
            assert_matches_recheck(source, target)
        assert two >= 20 and wide >= 10

    def test_block_layouts_agree_at_scale(self, monkeypatch):
        """A 2,048-member relabelled pair and its degree-preserving near
        miss give one verdict, witness, nodes and prunes with every shape
        class its own row block and with one block for the whole set.  The
        search pushes no witness through ``_or_images``."""
        calls = TestIdentityBitPermutation.counted_or_images(monkeypatch)
        rng = random.Random(2048)
        names = [f"v{i}" for i in range(16)]
        uncertain = rng.sample(names, 11)
        defeats = [(a, b) for a in names for b in names
                   if rng.random() < 0.2]
        source = completions_arg_iaf(ArgIAF(
            set(names) - set(uncertain), uncertain, defeats))
        fresh = [f"w{i}" for i in range(16)]
        rng.shuffle(fresh)
        renamed = Witness(dict(zip(names, fresh))).apply(source)
        near = swap_defeats(rng, renamed)
        assert len(source) == 2048 and near is not None
        for target, verdict in ((renamed, True), (near, False)):
            results = []
            for block_members in (1, len(source)):
                monkeypatch.setattr(equivalence, "_BLOCK_MEMBERS",
                                    block_members)
                results.append(equivalent(source, target))
            assert calls == []
            one_each, one_block = results
            assert (one_each.verdict, one_each.witness, one_each.nodes,
                    one_each.prunes) == (one_block.verdict,
                                         one_block.witness,
                                         one_block.nodes, one_block.prunes)
            assert one_each.equivalent == verdict and one_each.nodes > 0
            if verdict:
                assert check_witness(source, target, one_each.witness)
                assert applied_check_witness(source, target,
                                             one_each.witness)
                del calls[:]

    def test_identity_only_mode(self):
        s = completion_set_of(fixtures.get("example1"))
        same = equivalent(s, s, identity_only=True)
        assert same.equivalent and same.nodes == 1
        assert same.witness == Witness.identity(s.argument_union())
        renamed = Witness({n: n.upper() for n in s.argument_union()}).apply(s)
        other = equivalent(s, renamed, identity_only=True)
        assert not other.equivalent and other.nodes == 0
        assert other.witness is None
        assert equivalent(s, renamed).equivalent
        # one union and the same shapes, so the identity is tried and fails
        flipped = CompletionSet(AbstractAF(af.args, [(t, u) for u, t in
                                                     af.defeats])
                                for af in s)
        tried = equivalent(s, flipped, identity_only=True)
        assert not tried.equivalent and tried.nodes == 1
        assert tried.witness is None


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

    def test_max_args_has_no_bound_of_its_own(self):
        # the candidate is read from the target's keys, so only its
        # completions cost 2^k, under max_uncertain
        iaf = ArgIAF(["a"], ["b", "c"], [("b", "a")])
        target = completions_arg_iaf(iaf)
        assert not no_equivalent_arg_iaf(target, 64)
        with pytest.raises(UncertaintyBoundExceededError):
            no_equivalent_arg_iaf(target, 64, Limits(max_uncertain=1))

    def test_reads_the_target_without_building_members(self):
        # fixed arguments, count and the full member all come from keys
        iaf = ArgIAF(["a"], ["b", "c"], [("a", "b"), ("c", "a")])
        target = completions_arg_iaf(iaf)
        dropped = CompletionSet._keyed(target._graph,
                                        target._ordered().keys[1:])
        with no_member_built():
            assert not no_equivalent_arg_iaf(target, 3)
            assert no_equivalent_arg_iaf(dropped, 3)
            assert no_equivalent_arg_iaf(target, 2)

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

    def test_matches_enumeration_oracle(self):
        # Each target as-is, with one defeat toggled, with one member
        # dropped, and with a non-full member replaced by a toggled copy of
        # the full one; the last two reach the count and full-member exits,
        # and a toggled defeat that the full member lacks the lacks exit.
        rng = random.Random(109)
        exits = {"union": 0, "count": 0, "full": 0, "lacks": 0}
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
                full_defeats = [af.defeats for af in target
                                if len(af.args) == len(union)]
                n_full = len(full_defeats)
                lacks = n_full == 1 and not set(full_defeats[0]).issuperset(
                    chain.from_iterable(af.defeats for af in target))
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
                    elif len(target) == 1 << len(union - fixed) and lacks:
                        exits["lacks"] += 1
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
