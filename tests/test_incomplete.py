import random
from dataclasses import fields, replace

import pytest

from uarg import (
    AbstractAF,
    ArgIAF,
    CompletionSet,
    DepArgIAF,
    ImplyDisj,
    Limits,
    Nand,
    Or,
    Witness,
    arg_iaf_to_prem_isaf,
    arg_iaf_to_rul_isaf,
    check_witness,
    completions_arg_iaf,
    completions_dep,
    completions_prem,
    completions_rul,
    equivalent,
    is_implicative,
    no_equivalent_arg_iaf,
    parse_af,
    parse_iaf,
    prem_isaf_to_imp_arg_iaf,
    restrict,
    rul_isaf_to_imp_arg_iaf,
    serialize_iaf,
    synthesize_dependencies,
)
from uarg.errors import (
    ParseError,
    TargetNotRepresentableError,
    TargetNotSubsetError,
    UncertaintyBoundExceededError,
    UndeclaredArgumentError,
)
from uarg import incomplete, isaf, kernels
from uarg.documents import parse_completion_set, serialize_completion_set
from uarg.incomplete import (
    _arg_model,
    _entry_columns,
    _horn_closed_masks,
    _induced_completions,
    _key_coder,
    _member_order,
)

from framework_gen import (
    GEN_LIMITS,
    nand_cut_cases,
    no_member_built,
    random_arg_iaf,
    random_prem_isaf,
    random_rul_isaf,
)
from oracles import (
    applied_check_witness,
    as_pairs,
    dict_induced_completions,
    digit_member_order,
    fixpoint_horn_closed_masks,
    minimized_by_completions,
    naive_completions,
    naive_dep_completions,
    powerset,
    satisfies,
    table_induced_completions,
)

EX1 = ArgIAF(["a"], ["b", "c"], [("b", "a"), ("c", "a")])


def subset_names(completion_set):
    return sorted(af.args for af in completion_set)


class TestCompletions:
    def test_two_uncertain_defeaters(self):
        cs = completions_arg_iaf(EX1)
        assert len(cs) == 4
        assert as_pairs(cs) == naive_completions(["a"], ["b", "c"],
                                                 [("b", "a"), ("c", "a")])
        assert AbstractAF(["a", "b"], [("b", "a")]) in cs
        assert AbstractAF(["a"]) in cs

    def test_no_uncertainty(self):
        iaf = ArgIAF(["a", "b"], [], [("a", "b")])
        cs = completions_arg_iaf(iaf)
        assert cs == CompletionSet([AbstractAF(["a", "b"], [("a", "b")])])

    def test_self_defeating_uncertain(self):
        iaf = ArgIAF([], ["x"], [("x", "x")])
        assert as_pairs(completions_arg_iaf(iaf)) == {
            (frozenset(), frozenset()),
            (frozenset({"x"}), frozenset({("x", "x")})),
        }

    def test_cardinality_is_exact_power(self):
        rng = random.Random(3)
        for _ in range(40):
            iaf = random_arg_iaf(rng)
            assert len(completions_arg_iaf(iaf)) == 2 ** len(iaf.uncertain_args)

    def test_uncertainty_bound(self):
        # every argument-side reader of the 2^5 subsets checks one bound,
        # with one message, and passes at it: the dependency filter takes
        # the 2^n scan (or/nand is not implicative)
        iaf = ArgIAF([], [f"u{i}" for i in range(5)], [])
        cut = DepArgIAF(iaf, [Or(["u0", "u1"]), Nand(["u0", "u1"])])
        whole = completions_arg_iaf(iaf)
        readers = [
            lambda limits: completions_arg_iaf(iaf, limits),
            lambda limits: completions_dep(cut, limits),
            lambda limits: synthesize_dependencies(iaf, whole, limits=limits),
            lambda limits: no_equivalent_arg_iaf(whole, 5, limits),
        ]
        for read in readers:
            with pytest.raises(UncertaintyBoundExceededError,
                               match=": 5 uncertain .*--max-uncertain or "
                                     "UARG_MAX_UNCERTAIN$"):
                read(Limits(max_uncertain=4))
            read(Limits(max_uncertain=5))
        # past the Horn threshold, no clause still means the width bound,
        # checked before any subset is enumerated
        wide = ArgIAF([], [f"w{i:02d}" for i in range(16)], [])
        for read, x in ((completions_arg_iaf, wide),
                        (completions_dep, DepArgIAF(wide))):
            with pytest.raises(UncertaintyBoundExceededError,
                               match=": 16 uncertain elements exceed"):
                read(x, Limits(max_uncertain=15))

    def test_fixed_and_uncertain_disjoint(self):
        with pytest.raises(ValueError):
            ArgIAF(["a"], ["a"], [])


def _public_builds(iaf: ArgIAF) -> dict[type, object]:
    """Each frozen value class built through its public constructor from
    ``iaf``, which has at least two uncertain arguments."""
    first, rest = iaf.uncertain_args[:1], iaf.uncertain_args[1:]
    deps = [ImplyDisj(first, rest), Or(rest), Nand(iaf.uncertain_args)]
    return {AbstractAF: AbstractAF(iaf.all_args, iaf.defeats),
            ArgIAF: ArgIAF(iaf.fixed_args, iaf.uncertain_args, iaf.defeats),
            ImplyDisj: deps[0], Or: deps[1], Nand: deps[2],
            DepArgIAF: DepArgIAF(iaf, deps)}


# a change to one field that each public constructor refuses
_REFUSED = {AbstractAF: {"args": ["x y"]}, ArgIAF: {"fixed_args": ["x y"]},
            ImplyDisj: {"all_of": []}, Or: {"any_of": []},
            Nand: {"not_all_of": []}, DepArgIAF: {"deps": [Or(["zz"])]}}


@pytest.mark.parametrize("cls", list(_REFUSED), ids=lambda c: c.__name__)
def test_trusted_build_equals_public_build(cls):
    rng = random.Random(61)
    for _ in range(20):
        iaf = random_arg_iaf(rng, 5)
        if len(iaf.uncertain_args) < 2:
            continue
        public = _public_builds(iaf)[cls]
        values = [getattr(public, f.name) for f in fields(cls)]
        trusted = cls._canonical(*values)
        assert type(trusted) is cls and vars(trusted) == vars(public)
        assert trusted == public and hash(trusted) == hash(public)
        assert repr(trusted) == repr(public)
        # replace builds through the public constructor, checks and all
        assert replace(trusted) == public
        with pytest.raises(ValueError):
            replace(trusted, **_REFUSED[cls])
        for wrong in (values[:-1], values + [None]):
            with pytest.raises(TypeError):
                cls._canonical(*wrong)


def _graph_and_load(iaf):
    model = _arg_model(iaf.full_af(), iaf.uncertain_args)
    return model.graph, model.load


def _restriction_cases():
    """(full graph, load, masks) triples, the graph and load read from
    the completion model: structured frameworks with their
    maximal graphs, and argument-incomplete ones with every mask, a sample
    of masks in shuffled order, or the single mask 0.  Then masks that
    exclude the full subset, so the graph is not a member, and no mask at
    all, the empty set; on twelve arguments also masks that keep two
    uncertain arguments never together, or one never, so the set's
    union lacks defeats or arguments of the graph."""
    rng = random.Random(11)
    cases = []
    for i in range(40):
        x = (random_rul_isaf if i % 2 else random_prem_isaf)(rng)
        record = isaf._model(x, GEN_LIMITS).record
        cases.append((record.graph, record.load, range(1 << record.width)))
    iafs = [random_arg_iaf(rng, max_args=6) for _ in range(40)]
    iafs += [ArgIAF(["a", "b"], [], [("a", "b")]),  # nothing uncertain
             ArgIAF([], ["a", "b"], [("a", "b"), ("b", "b")]),
             ArgIAF()]
    for iaf in iafs:
        n = len(iaf.uncertain_args)
        full, load = _graph_and_load(iaf)
        cases.append((full, load, range(1 << n)))
        sample = rng.sample(range(1 << n), rng.randint(1, 1 << n))
        cases.append((full, load, sample))
        cases.append((full, load, [0]))  # no uncertain argument kept
    wide = []  # twelve arguments, so an argument mask spans two bytes
    names = [f"w{i:02d}" for i in range(12)]
    for _ in range(6):
        uncertain = rng.sample(names, 4)
        wide.append(ArgIAF(set(names) - set(uncertain), uncertain,
                           [(s, t) for s in names for t in names
                            if rng.random() < 0.2]))
    for iaf in iafs[:12] + wide:
        n = len(iaf.uncertain_args)
        full, load = _graph_and_load(iaf)
        if n:
            cases.append((full, load, range((1 << n) - 1)))
        cases.append((full, load, []))
    for iaf in wide:  # uncertain 0 and 1 never together; 2 never kept
        full, load = _graph_and_load(iaf)
        cases.append((full, load, [m for m in range(16) if m & 3 != 3]))
        cases.append((full, load, [m for m in range(16) if not m & 4]))
    return cases


class TestRestrictionOracle:
    @pytest.mark.parametrize("full, load, masks", _restriction_cases())
    def test_matches_dict_restriction(self, full, load, masks):
        got = _induced_completions(full, load, masks)
        expected = dict_induced_completions(full, load, masks)
        public = CompletionSet(expected.members)
        everything = dict_induced_completions(
            full, load, range(1 << max(load.values(), default=0).bit_length()))
        probes = [*everything, AbstractAF(["zz"]), AbstractAF(), "a"]
        truth = [p in expected.members for p in probes]  # tuple scan
        with no_member_built():
            assert len(got) == len(expected)
            assert got.argument_union() == expected.argument_union()
            assert serialize_completion_set(got) == \
                serialize_completion_set(public)
            for _ in range(2):  # answers do not change once cached
                assert [p in got for p in probes] == \
                    [p in expected for p in probes] == truth
            for left, right in ((got, expected), (got, public)):
                assert left == right and right == left
                assert hash(left) == hash(right)
        assert got.members == expected.members
        assert list(got) == list(expected)
        # the same answers from a set whose members are built first
        built = _induced_completions(full, load, masks)
        assert built.members == expected.members
        assert [p in built for p in probes] == truth
        assert built == public and hash(built) == hash(public)

    def test_members_stay_unbuilt(self):
        """Sizes, unions, serialization and certification of restricted
        sets build no member."""
        rng = random.Random(5)
        sets, certified = [], []
        for _ in range(20):
            iaf = random_arg_iaf(rng, max_args=5)
            source = completions_arg_iaf(iaf)
            for encode, completions in ((arg_iaf_to_rul_isaf, completions_rul),
                                        (arg_iaf_to_prem_isaf,
                                         completions_prem)):
                framework, witness = encode(iaf)
                target = completions(framework)
                certified.append((source, target, witness))
                certified.append((target, source, witness.invert()))
                sets.append(target)
            sets.append(source)
        for i in range(10):
            x = (random_rul_isaf if i % 2 else random_prem_isaf)(rng)
            source = (completions_rul if i % 2 else completions_prem)(
                x, GEN_LIMITS)
            to_imp = (rul_isaf_to_imp_arg_iaf if i % 2
                      else prem_isaf_to_imp_arg_iaf)
            target, witness = to_imp(x, GEN_LIMITS)
            target_set = completions_dep(target, GEN_LIMITS)
            certified.append((source, target_set, witness))
            sets += [source, target_set]
        texts = []
        with no_member_built():
            for source, target, witness in certified:
                assert check_witness(source, target, witness)
            for cs in sets:
                texts.append((len(cs), cs.argument_union(),
                              serialize_completion_set(cs)))
        for cs, (size, union, text) in zip(sets, texts):
            assert size == len(cs.members)
            assert union == frozenset().union(*(af.args for af in cs))
            assert text == serialize_completion_set(CompletionSet(cs))

    def test_graph_not_a_member(self):
        """Without the full subset no member holds the whole framework;
        the set, its document read back, and a witness check agree."""
        for diaf, names, defeats in nand_cut_cases():
            cut = completions_dep(diaf)
            union = frozenset(diaf.base.fixed_args + diaf.base.uncertain_args)
            assert cut.argument_union() == union
            assert all(len(af.args) < len(union) for af in cut)
            assert subset_names(cut) == names
            assert sorted({d for af in cut for d in af.defeats}) == defeats
            read = parse_completion_set(serialize_completion_set(cut))
            assert read == cut and cut == read and hash(read) == hash(cut)
            assert serialize_completion_set(read) == \
                serialize_completion_set(cut)
            identity = Witness.identity(union)
            for left, right in ((cut, cut), (cut, read), (read, cut)):
                assert check_witness(left, right, identity)
                for identity_only in (False, True):
                    assert equivalent(left, right,
                                      identity_only=identity_only).equivalent
            x, y = diaf.base.uncertain_args
            flip = Witness({a: a for a in union} | {x: y, y: x})
            assert check_witness(cut, read, flip) == \
                applied_check_witness(cut, read, flip)

    def test_empty_set(self):
        iaf = ArgIAF([], ["b"])
        empty = completions_dep(DepArgIAF(iaf, [Or(["b"]), Nand(["b"])]))
        assert len(empty) == 0 and not empty.members
        assert empty.argument_union() == frozenset()
        assert serialize_completion_set(empty) == ""
        assert empty == CompletionSet() and CompletionSet() == empty
        assert hash(empty) == hash(CompletionSet())
        assert AbstractAF() not in empty
        assert check_witness(empty, CompletionSet(), Witness({}))

    def test_argument_free_member(self):
        iaf = ArgIAF([], ["a", "b"], [("a", "b")])
        cs = _induced_completions(*_graph_and_load(iaf), [0, 3])
        assert cs.members == (AbstractAF(), AbstractAF(["a", "b"],
                                                       [("a", "b")]))


class TestSatisfies:
    def test_imply_holds_when_consequent_present(self):
        assert satisfies({"b", "c"}, ImplyDisj(["b"], ["c"]))

    def test_imply_fails_without_consequent(self):
        assert not satisfies({"b"}, ImplyDisj(["b"], ["c"]))

    def test_imply_vacuous_when_antecedent_absent(self):
        assert satisfies(set(), ImplyDisj(["b"], ["c"]))

    def test_or_and_nand(self):
        assert satisfies({"b"}, Or(["b", "c"]))
        assert not satisfies(set(), Or(["b", "c"]))
        assert satisfies(set(), Nand(["b", "c"]))
        assert satisfies({"b"}, Nand(["b", "c"]))
        assert not satisfies({"b", "c"}, Nand(["b", "c"]))

    def test_clause_matches_satisfies(self):
        # A subset falsifies the clause (pos, neg) iff it holds all of pos
        # and none of neg, as the oracle's reading of each dependency kind
        # says; the overlapping ImplyDisj is a tautology.
        universe = ["a", "b", "c", "d"]
        deps = [ImplyDisj(["a", "b"], ["c", "d"]), ImplyDisj(["a"], ["d"]),
                ImplyDisj(["a", "b"], ["b", "c"]), Or(["b", "d"]), Or(["c"]),
                Nand(["a", "c", "d"]), Nand(["b"])]
        for dep in deps:
            pos, neg = dep.clause()
            for present in map(set, powerset(universe)):
                assert satisfies(present, dep) == \
                    (not pos <= present or bool(neg & present)), (dep, present)

    def test_member_sets_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Or([])
        with pytest.raises(ValueError):
            ImplyDisj([], ["a"])


class TestDependencyFiltering:
    def test_imply_excludes_one_completion(self):
        cs = completions_dep(DepArgIAF(EX1, [ImplyDisj(["b"], ["c"])]))
        assert subset_names(cs) == [("a",), ("a", "b", "c"), ("a", "c")]

    def test_or_excludes_empty_choice(self):
        cs = completions_dep(DepArgIAF(EX1, [Or(["b", "c"])]))
        assert subset_names(cs) == [("a", "b"), ("a", "b", "c"), ("a", "c")]

    def test_nand_excludes_joint_presence(self):
        cs = completions_dep(DepArgIAF(EX1, [Nand(["b", "c"])]))
        assert subset_names(cs) == [("a",), ("a", "b"), ("a", "c")]

    def test_monotone_in_dependency_set(self):
        rng = random.Random(5)
        for _ in range(30):
            iaf = random_arg_iaf(rng)
            unc = list(iaf.uncertain_args)
            if not unc:
                continue
            deps = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.choice(("imply", "or", "nand"))
                xs = rng.sample(unc, rng.randint(1, len(unc)))
                if kind == "imply":
                    ys = rng.sample(unc, rng.randint(1, len(unc)))
                    deps.append(ImplyDisj(xs, ys))
                elif kind == "or":
                    deps.append(Or(xs))
                else:
                    deps.append(Nand(xs))
            smaller = completions_dep(DepArgIAF(iaf, deps))
            for k in range(len(deps)):
                bigger = completions_dep(DepArgIAF(iaf, deps[:k]))
                assert set(as_pairs(smaller)) <= set(as_pairs(bigger))
            assert as_pairs(smaller) == naive_dep_completions(
                iaf.fixed_args, iaf.uncertain_args, iaf.defeats, deps)

    def test_dependency_must_mention_uncertain_args_only(self):
        with pytest.raises(ValueError):
            DepArgIAF(EX1, [Or(["a"])])

    def test_imply_antecedent_superset_closure(self):
        # if imply(all_of, {y}) holds on every subset, widening the
        # antecedent keeps it satisfied on supersets of the wider antecedent
        rng = random.Random(17)
        universe = ["u", "v", "w", "x"]
        for _ in range(60):
            base = frozenset(rng.sample(universe, rng.randint(1, 3)))
            y = rng.choice(universe)
            dep = ImplyDisj(base, [y])
            if not all(satisfies(set(p), dep) for p in powerset(universe)):
                continue
            wider = base | set(rng.sample(universe, rng.randint(0, 2)))
            if not wider:
                continue
            wider_dep = ImplyDisj(wider, [y])
            for present in powerset(universe):
                if wider <= set(present):
                    assert satisfies(set(present), wider_dep)

    def test_is_implicative(self):
        assert is_implicative(DepArgIAF(EX1, [ImplyDisj(["b"], ["c"])]))
        assert is_implicative(DepArgIAF(EX1, []))
        assert not is_implicative(DepArgIAF(EX1, [Or(["b", "c"])]))
        assert not is_implicative(
            DepArgIAF(EX1, [ImplyDisj(["b"], ["b", "c"])]))

    def test_horn_path_matches_subset_path(self):
        # Same framework through both strategies: the closure-based route is
        # forced by a tiny bound... the bound applies to the subset route
        # only, so widen uncertainty past the switch threshold instead.
        names = [f"u{i}" for i in range(16)]
        iaf = ArgIAF([], names, [])
        deps = [ImplyDisj([names[i]], [names[i + 1]]) for i in range(0, 14, 2)]
        wide = completions_dep(DepArgIAF(iaf, deps))
        # subset route on the same instance, clauses from its model
        index = {a: i for i, a in enumerate(iaf.uncertain_args)}
        clauses = _arg_model(iaf.full_af(), iaf.uncertain_args, deps).clauses
        masks = kernels.dependency_masks(len(names), clauses)
        assert wide == CompletionSet(
            AbstractAF([a for a in names if m >> index[a] & 1])
            for m in masks)

    def test_only_implicative_sets_take_the_horn_path(self, monkeypatch):
        # With no width threshold every framework counts as wide, so the
        # kinds of the dependencies alone pick closure or kernel: single
        # consequents only, wider consequents only, or mixed kinds.
        monkeypatch.setattr(incomplete, "_HORN_THRESHOLD", 0)
        rng = random.Random(29)
        for i in range(90):
            iaf = random_arg_iaf(rng, max_args=5)
            unc = list(iaf.uncertain_args)
            if len(unc) < 2:
                continue
            deps = []
            for _ in range(rng.randint(1, 3)):
                xs = rng.sample(unc, rng.randint(1, len(unc)))
                ys = rng.sample(unc, 1 if i % 3 == 0
                                else rng.randint(2, len(unc)))
                kind = "imply" if i % 3 < 2 else \
                    rng.choice(("imply", "or", "nand"))
                deps.append(ImplyDisj(xs, ys) if kind == "imply"
                            else Or(xs) if kind == "or" else Nand(xs))
            assert as_pairs(completions_dep(DepArgIAF(iaf, deps))) == \
                naive_dep_completions(iaf.fixed_args, unc, iaf.defeats, deps)

    def test_horn_cap_raises(self):
        names = [f"u{i}" for i in range(16)]
        iaf = ArgIAF([], names, [])
        deps = [ImplyDisj([names[0]], [names[1]])]
        with pytest.raises(UncertaintyBoundExceededError,
                           match=r"2\^10 = 1024 .*--max-uncertain or "
                                 "UARG_MAX_UNCERTAIN"):
            completions_dep(DepArgIAF(iaf, deps), Limits(max_uncertain=10))

    def test_alternating_chain_takes_the_bounded_scan(self, monkeypatch):
        # or/nand on each neighbouring pair is not implicative, so however
        # wide the chain it takes the 2^n kernel, and the uncertainty bound
        # (20 by default) is checked before the kernel runs.
        def chain(n):
            names = [f"u{i}" for i in range(n)]
            pairs = [names[i:i + 2] for i in range(n - 1)]
            deps = [Or(p) for p in pairs] + [Nand(p) for p in pairs]
            return names, DepArgIAF(ArgIAF([], names, []), deps)

        names, diaf = chain(20)
        assert subset_names(completions_dep(diaf)) == sorted(
            tuple(sorted(names[i::2])) for i in (0, 1))

        def refuse(n, clauses):
            raise AssertionError(f"kernel called at n={n}")

        monkeypatch.setattr(kernels, "dependency_masks", refuse)
        with pytest.raises(UncertaintyBoundExceededError,
                           match=r"^UNCERTAINTY_BOUND_EXCEEDED: 21 uncertain "
                                 r"elements exceed the bound 20 \(2\^21 "):
            completions_dep(chain(21)[1])

    def test_horn_closure_against_fixpoint_enumeration(self):
        rng = random.Random(37)
        for _ in range(60):
            n = rng.randint(1, 18)
            deps = []
            for _ in range(rng.randint(n, 3 * n)):
                body = rng.sample(range(n), rng.randint(1, min(n, 3)))
                deps.append((sum(1 << i for i in body),
                             1 << rng.randrange(n)))
            assert _horn_closed_masks(n, deps, 20) == \
                fixpoint_horn_closed_masks(n, deps, 20), (n, deps)

    @pytest.mark.parametrize("enumerate_closed", [
        _horn_closed_masks, fixpoint_horn_closed_masks])
    def test_horn_cap_boundary(self, enumerate_closed):
        # k free bits have 2^k closed sets; a (k+1)-th bit that implies
        # all the others adds exactly one, the full set.
        k = 4
        assert len(enumerate_closed(k, [], k)) == 1 << k
        deps = [(1 << k, 1 << i) for i in range(k)]
        assert len(enumerate_closed(k + 1, deps, k + 1)) == (1 << k) + 1
        with pytest.raises(UncertaintyBoundExceededError,
                           match=r"more than 2\^4 = 16 dependency-satisfying "
                                 r"subsets \(bound 4\); raise it with "
                                 "--max-uncertain or UARG_MAX_UNCERTAIN$"):
            enumerate_closed(k + 1, deps, k)


class TestSynthesis:
    def test_nand_plus_or_target(self):
        all_c = completions_arg_iaf(EX1)
        target = CompletionSet([
            AbstractAF(["a", "b"], [("b", "a")]),
            AbstractAF(["a", "c"], [("c", "a")]),
        ])
        deps = synthesize_dependencies(EX1, target)
        assert deps == frozenset({Nand(["b", "c"]), Or(["b", "c"])})
        assert completions_dep(DepArgIAF(EX1, deps)) == target
        assert len(all_c) == 4

    def test_full_target_needs_no_dependencies(self):
        target = completions_arg_iaf(EX1)
        assert synthesize_dependencies(EX1, target) == frozenset()

    def test_empty_target_with_one_uncertain(self):
        iaf = ArgIAF([], ["b"], [])
        deps = synthesize_dependencies(iaf, CompletionSet())
        assert deps == frozenset({Or(["b"]), Nand(["b"])})
        assert len(completions_dep(DepArgIAF(iaf, deps))) == 0

    def test_target_not_subset(self):
        with pytest.raises(TargetNotSubsetError):
            synthesize_dependencies(EX1, CompletionSet([AbstractAF(["zz"])]))

    def test_stray_count_matches_membership(self):
        # members off by one argument or one defeat, each a stray
        def variants(rng, iaf, m):
            yield AbstractAF(m.args + ("zz",), m.defeats)
            yield restrict(m, set(m.args) - set(iaf.fixed_args[:1]))
            if m.defeats:
                yield AbstractAF(m.args, m.defeats[1:])
            if m.args:
                yield AbstractAF(m.args, set(m.defeats) | {
                    (rng.choice(m.args), rng.choice(m.args))})

        rng = random.Random(43)
        for _ in range(150):
            iaf = random_arg_iaf(rng, 5)
            members = list(completions_arg_iaf(iaf))
            chosen = [m for m in members if rng.random() < 0.5]
            for m in members:
                chosen += [v for v in variants(rng, iaf, m)
                           if rng.random() < 0.3]
            target = CompletionSet(chosen)
            stray = sum(af not in set(members) for af in target)
            if not stray:
                continue
            with pytest.raises(TargetNotSubsetError,
                               match=f": {stray} target frameworks "):
                synthesize_dependencies(iaf, target)

    def test_synthesis_builds_no_member(self):
        # a lazily built target keeps its members unbuilt
        rng = random.Random(47)
        for _ in range(40):
            iaf = random_arg_iaf(rng, 5)
            whole = completions_arg_iaf(iaf)
            with no_member_built():
                assert synthesize_dependencies(iaf, whole) == frozenset()
        for diaf, _, _ in nand_cut_cases():
            target = completions_dep(diaf)
            with no_member_built():
                deps = synthesize_dependencies(diaf.base, target)
            assert completions_dep(DepArgIAF(diaf.base, deps)) == target
        other = completions_arg_iaf(ArgIAF(["a"], ["b", "c"], [("b", "a")]))
        with no_member_built(), pytest.raises(TargetNotSubsetError):
            synthesize_dependencies(EX1, other)

    def test_unrepresentable_empty_target(self):
        iaf = ArgIAF(["a"], [], [])
        with pytest.raises(TargetNotRepresentableError):
            synthesize_dependencies(iaf, CompletionSet())

    def test_round_trip_exhaustive_small(self):
        iaf = ArgIAF(["a"], ["b", "c"], [("b", "a"), ("c", "b")])
        completions = list(completions_arg_iaf(iaf))
        for chosen in powerset(completions):
            target = CompletionSet(chosen)
            deps = synthesize_dependencies(iaf, target)
            assert completions_dep(DepArgIAF(iaf, deps)) == target

    def test_minimize_drops_redundant_dependencies(self):
        iaf = ArgIAF([], ["b", "c"], [])
        target = CompletionSet([AbstractAF(["b", "c"])])
        full = synthesize_dependencies(iaf, target)
        slim = synthesize_dependencies(iaf, target, minimize=True)
        assert completions_dep(DepArgIAF(iaf, slim)) == target
        assert len(slim) <= len(full)

    @pytest.mark.parametrize("threshold", [None, 0], ids=["kernel", "horn"])
    def test_minimize_matches_completion_set_oracle(self, monkeypatch,
                                                    threshold):
        if threshold is not None:  # implicative trials take the Horn path
            monkeypatch.setattr(incomplete, "_HORN_THRESHOLD", threshold)
        rng = random.Random(23)
        kinds = set()
        for n in range(7):
            names = [f"u{i}" for i in range(n)]
            fixed = ["f"] if rng.random() < 0.5 else []
            defeats = [(s, t) for s in fixed + names for t in fixed + names
                       if rng.random() < 0.3]
            iaf = ArgIAF(fixed, names, defeats)
            members = list(completions_arg_iaf(iaf))
            targets = [members, members[:1], members[-1:]]
            targets += [[m for m in members if rng.random() < 0.5]
                        for _ in range(4)]
            for chosen in targets:
                if not chosen and n == 0:
                    continue  # not representable
                target = CompletionSet(chosen)
                full = synthesize_dependencies(iaf, target)
                kinds.update(type(dep) for dep in full)
                for dep in full:  # as the public constructors render it
                    pos, neg = dep.clause()
                    twin = (Or(neg) if not pos else Nand(pos) if not neg
                            else ImplyDisj(pos, neg))
                    assert (type(dep), vars(dep)) == (type(twin), vars(twin))
                # every clause is already irredundant
                assert synthesize_dependencies(iaf, target, minimize=True) \
                    == full == minimized_by_completions(iaf, full, target)
        assert kinds == {Or, Nand, ImplyDisj}


class TestIafTextFormat:
    def test_parse_and_serialize(self):
        text = ("arg(a).\n?arg(b).\n?arg(c).\natt(b,a).\natt(c,a).\n"
                "imply([b],[c]).\n")
        diaf = parse_iaf(text)
        assert diaf.base == EX1
        assert diaf.deps == frozenset({ImplyDisj(["b"], ["c"])})
        assert serialize_iaf(diaf) == text

    def test_round_trip_random(self):
        rng = random.Random(13)
        for _ in range(30):
            iaf = random_arg_iaf(rng)
            unc = list(iaf.uncertain_args)
            deps = []
            if unc:
                deps = [Or(rng.sample(unc, rng.randint(1, len(unc))))]
            diaf = DepArgIAF(iaf, deps)
            assert parse_iaf(serialize_iaf(diaf)) == diaf

    def test_dep_over_undeclared_argument(self):
        with pytest.raises(UndeclaredArgumentError):
            parse_iaf("arg(a).\n?arg(b).\nor([a]).\n")

    def test_bracketed_identifiers_survive(self):
        diaf = DepArgIAF(ArgIAF(["p"], ["[]=d>q"], []),
                         [Or(["[]=d>q"])])
        assert parse_iaf(serialize_iaf(diaf)) == diaf

    @pytest.mark.parametrize("dep", [Or(["[a]", "[b"]), Nand(["[a]", "[b"])])
    def test_one_list_holding_bracket_comma_bracket(self, dep):
        # written as or([[a],[b]). / nand([[a],[b]).: one list, not two
        diaf = DepArgIAF(ArgIAF([], ["[a]", "[b"], []), [dep])
        assert "[[a],[b])." in serialize_iaf(diaf)
        assert parse_iaf(serialize_iaf(diaf)) == diaf

    def test_imply_still_splits_on_bracket_comma_bracket(self):
        # A line without the ',,' mark splits at every '],[', so the
        # serializer marks the boundary exactly when '],[' is ambiguous:
        # in the first list, in the second, or in neither (sorted, the
        # second list here is [c,b]).
        base = ArgIAF([], ["[a]", "[a", "[b]", "[b", "b]", "[c", "c"], [])
        for dep, line in (
                (ImplyDisj(["[a]", "[b"], ["c"]), "imply([[a],[b],,[c])."),
                (ImplyDisj(["[a"], ["[b]", "[c"]),
                 "imply([[a],,[[b],[c])."),
                (ImplyDisj(["[a"], ["b]", "[c"]), "imply([[a],[[c,b]]).")):
            diaf = DepArgIAF(base, [dep])
            assert line in serialize_iaf(diaf).splitlines()
            assert parse_iaf(serialize_iaf(diaf)) == diaf
            if ",," in line:
                with pytest.raises(ParseError, match="two lists"):
                    parse_iaf(serialize_iaf(diaf).replace("],,[", "],["))

    def test_att_names_may_carry_whitespace(self):
        for text in ("arg(a).\narg(b).\natt(a ,b).\n",
                     "arg(a).\narg(b).\natt( a,\tb ).\n"):
            assert parse_af(text) == AbstractAF(["a", "b"], [("a", "b")])
            assert parse_iaf(text).base.full_af() == parse_af(text)

    def test_arg_body_is_taken_verbatim(self):
        for parse in (parse_af, parse_iaf):
            with pytest.raises(ParseError) as info:
                parse("arg(a).\n  arg( b).\n")
            assert (info.value.line, info.value.column) == (2, 3)


@pytest.fixture
def member_orders(monkeypatch):
    """The number of ``_member_order`` calls made so far, in a one-item
    list."""
    calls = [0]
    order = incomplete._member_order

    def counted(*args):
        calls[0] += 1
        return order(*args)

    monkeypatch.setattr(incomplete, "_member_order", counted)
    return calls


class TestMemberOrderRuns:
    """Member order is computed only to build members or to write a
    document: enumeration, reading, equivalence, witness checks,
    negative certification and synthesis use the keys as a set."""

    def test_only_members_and_the_writer_order(self, member_orders):
        rng = random.Random(53)
        sets, synth = [], []
        for _ in range(20):
            iaf = random_arg_iaf(rng, max_args=5)
            rul, _ = arg_iaf_to_rul_isaf(iaf)
            prem, _ = arg_iaf_to_prem_isaf(iaf)
            sets += [completions_arg_iaf(iaf), completions_rul(rul),
                     completions_prem(prem),
                     completions_rul(random_rul_isaf(rng), GEN_LIMITS),
                     completions_prem(random_prem_isaf(rng), GEN_LIMITS)]
            if iaf.uncertain_args:
                cut = completions_dep(
                    DepArgIAF(iaf, [Nand(iaf.uncertain_args)]))
                sets.append(cut)
                synth.append((iaf, cut))
        for diaf, _, _ in nand_cut_cases():
            sets.append(completions_dep(diaf))
            synth.append((diaf.base, sets[-1]))
        assert member_orders == [0]
        texts = [serialize_completion_set(cs) for cs in sets]
        assert member_orders == [len(sets)]  # once per document
        read = [parse_completion_set(text) for text in texts]
        for cs, back in zip(sets, read):
            union = cs.argument_union()
            assert back == cs
            assert check_witness(cs, back, Witness.identity(union))
            if len(union) <= 8:
                assert equivalent(cs, back).equivalent
            assert equivalent(cs, back, identity_only=True).equivalent
            no_equivalent_arg_iaf(back, 8)
        for base, target in synth:
            synthesize_dependencies(base, target)
        assert member_orders == [len(sets)]
        for back in read:  # once on the first iteration, not again
            before = member_orders[0]
            assert list(back) == list(back)
            assert member_orders[0] == before + 1


def _random_deps(rng: random.Random, uncertain) -> list:
    """Up to three random dependencies over ``uncertain``."""
    deps = []
    for _ in range(rng.randint(0, 3) if uncertain else 0):
        first, second = (rng.sample(uncertain, rng.randint(1, len(uncertain)))
                         for _ in range(2))
        deps.append(rng.choice([ImplyDisj(first, second), Or(first),
                                Nand(first)]))
    return deps


def _column_restriction_cases():
    """(graph, load, masks) triples from the completion models of all
    four kinds of ``framework_gen`` framework: every mask the model
    admits, and a random part of them without the full subset, so that
    no member need hold the whole graph.  Structured loads need several
    elements each.  Then 70 arguments, so a member's key is wider than 64
    bits: one uncertain argument each, and loads of up to three of eight
    elements."""
    rng = random.Random(71)
    models = []
    for i in range(30):
        iaf = random_arg_iaf(rng, max_args=6)
        models.append(_arg_model(iaf.full_af(), iaf.uncertain_args))
        iaf = random_arg_iaf(rng, max_args=6)
        models.append(_arg_model(iaf.full_af(), iaf.uncertain_args,
                                 _random_deps(rng, iaf.uncertain_args)))
        x = (random_rul_isaf if i % 2 else random_prem_isaf)(rng)
        models.append(isaf._model(x, GEN_LIMITS).record)
    names = [f"w{i:02d}" for i in range(70)]
    chain = AbstractAF(names, zip(names, names[1:]))
    models.append(_arg_model(chain, tuple(rng.sample(names, 6))))
    load = {a: sum(1 << b for b in rng.sample(range(8), rng.randint(0, 3)))
            for a in names}
    models.append(incomplete._Model(chain, load, 8))
    cases = []
    for model in models:
        masks = list(incomplete._masks(model, GEN_LIMITS))
        full = (1 << model.width) - 1
        cases.append((model.graph, model.load, masks))
        cases.append((model.graph, model.load, [
            m for m in masks if m != full and rng.random() < 0.5]))
    return cases


class TestColumnRestriction:
    """The column restriction keeps the members and the union graph of
    the one-mask-at-a-time restriction, renumbering and dropped defeats
    included."""

    def test_cases_reach_every_shape(self):
        cases = _column_restriction_cases()
        assert any(bin(need).count("1") > 1
                   for _, load, _ in cases for need in load.values())
        assert max(len(graph.args) for graph, _, _ in cases) == 70
        unions = [table_induced_completions(*case)._graph for case in cases]
        # arguments that no mask keeps, so keys are renumbered
        assert any(len(union.args) < len(graph.args)
                   for union, (graph, _, _) in zip(unions, cases))
        # every argument kept, but a defeat between two that no member
        # holds together
        assert any(len(union.args) == len(graph.args)
                   and len(union.defeats) < len(graph.defeats)
                   for union, (graph, _, _) in zip(unions, cases))
        assert any(not masks for _, _, masks in cases)

    def test_matches_table_restriction(self):
        for graph, load, masks in _column_restriction_cases():
            got = _induced_completions(graph, load, masks)
            expected = table_induced_completions(graph, load, masks)
            with no_member_built():
                assert got._graph == expected._graph
                assert got._keys == expected._keys
                assert got == expected and hash(got) == hash(expected)
                assert serialize_completion_set(got) == \
                    serialize_completion_set(expected)
            assert got.members == dict_induced_completions(
                graph, load, masks).members


def _table_models():
    """Clause-free models of widths 0 to 10: random graphs whose
    arguments need up to three elements each, some none, and the models
    of ``framework_gen`` rule and premise frameworks."""
    rng = random.Random(79)
    models = []
    for width in range(11):
        for _ in range(8):
            names = [f"a{i}" for i in range(rng.randint(0, 10))]
            graph = AbstractAF(names, [(s, t) for s in names for t in names
                                       if rng.random() < 0.3])
            load = {a: sum(1 << b for b in rng.sample(
                range(width), rng.randint(0, min(3, width))))
                for a in names}
            models.append(incomplete._Model(graph, load, width))
    for i in range(30):
        x = (random_rul_isaf if i % 2 else random_prem_isaf)(rng)
        models.append(isaf._model(x, GEN_LIMITS).record)
    return models


class TestAllSubsetTable:
    """A clause-free model completes from one table of ORs, to the set
    that the packed restriction and the one-mask-at-a-time restriction
    give over every mask, and only after the uncertainty bound is
    checked; a model with clauses is restricted on packed columns."""

    def test_matches_restrictions(self):
        models = _table_models()
        assert any(bin(need).count("1") > 1
                   for model in models for need in model.load.values())
        assert {model.width for model in models} == set(range(11))
        for model in models:
            masks = range(1 << model.width)
            with no_member_built():
                got = incomplete._complete(model, GEN_LIMITS)
                for expected in (
                        _induced_completions(model.graph, model.load, masks),
                        table_induced_completions(model.graph, model.load,
                                                  masks)):
                    assert got._graph == expected._graph
                    assert got._keys == expected._keys
                    assert serialize_completion_set(got) == \
                        serialize_completion_set(expected)

    def test_table_without_clauses_and_packed_with(self, monkeypatch):
        packed = []
        original = incomplete._induced_completions

        def counting(graph, load, masks):
            packed.append(len(masks))
            return original(graph, load, masks)

        monkeypatch.setattr(incomplete, "_induced_completions", counting)
        for width in (0, 8, 9, 12):
            names = [f"u{i}" for i in range(width)]
            completions = completions_arg_iaf(ArgIAF(["f"], names))
            assert len(completions) == 1 << width
        assert packed == []
        completions_dep(DepArgIAF(ArgIAF([], ["a", "b"]), [Or(["a", "b"])]))
        assert packed == [3]

    def test_bound_checked_before_the_table(self):
        names = [f"u{i}" for i in range(6)]
        iaf = ArgIAF(["f"], names, [("f", "u0")])
        bound, exceeded = Limits(max_uncertain=5), "6 uncertain elements"
        with pytest.raises(UncertaintyBoundExceededError, match=exceeded):
            completions_arg_iaf(iaf, bound)
        for encode, complete in ((arg_iaf_to_rul_isaf, completions_rul),
                                 (arg_iaf_to_prem_isaf, completions_prem)):
            target, _ = encode(iaf)
            with pytest.raises(UncertaintyBoundExceededError,
                               match=exceeded):
                complete(target, bound)
            assert len(complete(target, Limits(max_uncertain=6))) == 64


def _sorted_keys(members) -> tuple[AbstractAF, tuple[int, ...]]:
    """The union graph of ``members``, and the keys of the distinct ones
    over it in the order of their sorted (args, defeats) pairs."""
    graph = CompletionSet(members)._graph
    key = _key_coder(graph)
    pairs = sorted({(af.args, af.defeats) for af in members})
    ordered = tuple(key(*pair) for pair in pairs)
    return graph, ordered


def _member_order_cases() -> list[list[AbstractAF]]:
    """Member lists: none; only the empty member; members sharing their
    arguments and differing in defeats (lack-bit ties); a 40-argument
    chain, so a rank and its key need more than 64 bits; nine arguments
    defeating one another (81 defeats), members lacking some, so a
    lack-bit key needs more than 64 bits; and random small sets with
    and without lack bits."""
    rng = random.Random(73)
    cases = [[], [AbstractAF()]]
    cases.append([AbstractAF(["a", "b"], held) for held in
                  powerset([("a", "b"), ("b", "a"), ("a", "a")])]
                 + [AbstractAF(["a"], [("a", "a")]), AbstractAF(["a"]),
                    AbstractAF(["b"])])
    names = [f"c{i:02d}" for i in range(40)]
    chain = AbstractAF(names, zip(names, names[1:]))
    cases.append([chain, AbstractAF(), AbstractAF(names[-1:])]
                 + [restrict(chain, rng.sample(names, rng.randint(0, 40)))
                    for _ in range(30)])
    names = [f"d{i}" for i in range(9)]
    every = [(s, t) for s in names for t in names]
    cases.append([AbstractAF(names, every)]
                 + [AbstractAF(names, rng.sample(every, rng.randint(0, 81)))
                    for _ in range(20)]
                 + [AbstractAF(names[:4], [(s, t) for s, t in every
                                           if s in names[:4] and t < s])])
    for _ in range(40):
        args = rng.sample("abcdef", rng.randint(1, 6))
        members = []
        for _ in range(rng.randint(1, 12)):
            kept = rng.sample(args, rng.randint(0, len(args)))
            pairs = [(s, t) for s in kept for t in kept]
            members.append(AbstractAF(kept, rng.sample(
                pairs, rng.randint(0, len(pairs)))))
        cases.append(members)
        iaf = random_arg_iaf(rng, max_args=6)
        cases.append(list(completions_arg_iaf(iaf)))
    return cases


class TestMemberOrder:
    """Members sort by the rank of their argument masks, and lack-bit
    ties by the rank of the defeats held: the same order as the
    digit-string sort and as sorting the members' (args, defeats)
    pairs, whatever the order the keys were inserted in."""

    def test_cases_reach_every_shape(self):
        cases = _member_order_cases()
        graphs = [_sorted_keys(members)[0] for members in cases]
        assert max(2 * len(graph.args) for graph in graphs) > 64
        assert any(len(graph.defeats) > 64 and any(
            key >> len(graph.args) for key in _sorted_keys(members)[1])
            for graph, members in zip(graphs, cases))

    def test_matches_digit_order_and_sorted_members(self):
        for members in _member_order_cases():
            graph, expected = _sorted_keys(members)
            ascending = sorted(expected)
            shuffled = ascending[:]
            random.Random(len(expected)).shuffle(shuffled)
            for inserted in (ascending, ascending[::-1], shuffled):
                keys = frozenset(inserted)
                with no_member_built():
                    ordered = _member_order(graph, keys)
                assert ordered.keys == expected
                assert digit_member_order(graph, keys) == expected
                # the columns are those of the keys in that order
                assert ordered.columns == _entry_columns(graph, expected)


class TestKeyColumns:
    def test_matches_per_bit_oracle(self):
        """Field k of column i holds bit i of key k, for fields of one to
        three bytes and keys one to three fields wide: keys wider than
        their field are spread into the fields a byte at a time."""
        rng = random.Random(61)
        for field in (1, 2, 3):
            for wide in (1, 2, 3):
                for _ in range(25):
                    top = rng.randint(8 * field * (wide - 1) + 1,
                                      8 * field * wide)
                    keys = [rng.getrandbits(top)
                            for _ in range(rng.randint(1, 9))]
                    keys[0] |= 1 << top - 1  # the widest key has top bits
                    bits = top + rng.randint(0, 3)
                    want = [int.from_bytes(b"".join(
                        (key >> i & 1).to_bytes(field, "little")
                        for key in keys), "little") for i in range(bits)]
                    assert incomplete._key_columns(keys, bits, field) == want
                    assert incomplete._key_columns(
                        keys, bits, field, top) == want

    def test_every_field_size_against_per_key_bytes(self):
        """Keys are packed through ``_field_bytes`` at every field size,
        in whole array cells, in the low bytes of wider cells, and a key
        at a time, fitting their field or wider than it: the bytes are
        each key's own little-endian bytes, and field k of column i holds
        bit i of key k."""
        rng = random.Random(71)
        for field in (1, 2, 4, 8, 16, 3, 5, 12):
            for wide in (1, 2, 3):
                for count in (1, 2, 7, 40):
                    top = rng.randint(8 * field * (wide - 1) + 1,
                                      8 * field * wide)
                    keys = [rng.getrandbits(top) for _ in range(count)]
                    keys[-1] |= 1 << top - 1  # the widest key has top bits
                    width = (top + 7) // 8
                    assert incomplete._field_bytes(keys, width) == b"".join(
                        key.to_bytes(width, "little") for key in keys)
                    bits = top + rng.randint(0, 3)
                    want = [int.from_bytes(b"".join(
                        (key >> i & 1).to_bytes(field, "little")
                        for key in keys), "little") for i in range(bits)]
                    assert incomplete._key_columns(keys, bits, field) == want
