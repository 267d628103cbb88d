import json
import random
import sys
from itertools import starmap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uarg import (
    AbstractAF,
    CompletionSet,
    DepArgIAF,
    ImplyDisj,
    Nand,
    Or,
    SAF,
    Witness,
    check_witness,
    completions_arg_iaf,
    completions_dep,
    equivalent,
    fixtures,
    parse_af,
    parse_iaf,
    prem_isaf_to_rul_isaf,
    restrict,
    serialize_af,
    serialize_iaf,
    tidy,
)
from uarg import aspic
from uarg.core import is_valid_argument_id
from uarg.documents import (
    build_prem_isaf,
    build_rul_isaf,
    build_saf,
    load_framework,
    load_theory_document,
    parse_completion_set,
    serialize_completion_set,
    serialize_framework,
    theory_document_of,
)
from uarg.errors import (
    InvalidTheoryError,
    MixedUncertaintyError,
    ParseError,
    UargError,
    UndeclaredArgumentError,
)
from uarg.incomplete import _key_coder

from framework_gen import (
    frameworks_built,
    nand_cut_cases,
    no_member_built,
    random_arg_iaf,
)
from oracles import (
    linewise_parse_af,
    linewise_parse_iaf,
    per_member_serialize_completion_set,
    sectioned_parse_completion_set,
    sorted_completion_set,
)

# A fixed premise p that an empty-bodied rule also derives.
UNTIDY_DOC = {"close_negation": True,
              "rules": [{"body": [], "head": "p", "kind": "defeasible"}],
              "kb": {"premises_fixed": ["p"]}}

# Lines and fragments of the completion-set format, so that generated
# text reaches the identifier and declaration checks, not only
# "unrecognized line".
_LINES = st.tuples(
    st.sampled_from(["arg(", "att(", "att(a,", " arg(", "%", "---"]),
    st.text(max_size=4),
    st.sampled_from([").", ",a).", ")", "", ". "]),
    st.sampled_from(["\n", "\r\n", "\x85", ""])).map("".join)
_TEXT = st.lists(st.one_of(_LINES, st.text(max_size=8)), max_size=12) \
    .map("".join)

# Whole lines of the AF and IAF formats over a few identifiers, some with
# brackets, so that generated documents often parse and reach the
# declaration, clash and dependency checks; arbitrary text stands in for
# an identifier or a line now and then.
_NAME = st.sampled_from(["a", "b", "c", "~a", "a]", "[b", "[]=d>q"])
_ID = st.one_of(_NAME, _NAME, _NAME, st.text(max_size=3))
_ID_LIST = st.lists(_ID, min_size=1, max_size=3).map(
    lambda ids: "[" + ",".join(ids) + "]")
_FORMAT_LINE = st.one_of(
    st.builds("arg({}).".format, _ID),
    st.builds("?arg({}).".format, _NAME),
    st.builds("?arg({}).".format, _ID),
    st.builds("att({},{}{}).".format, _ID, st.sampled_from(["", " "]), _ID),
    st.builds("imply({},{}).".format, _ID_LIST, _ID_LIST),
    st.builds("or({}).".format, _ID_LIST),
    st.builds("nand({}).".format, _ID_LIST),
    st.builds("%{}".format, st.text(max_size=4)),
    st.text(max_size=6))
# Texts of arg and att lines only, with whitespace around att names.
_GRAPH_TEXT = st.lists(
    st.one_of(st.builds("arg({}).".format, _ID),
              st.builds("att({}{},{}{}).".format, st.sampled_from(["", " "]),
                        _ID, st.sampled_from(["", " ", "\t"]), _ID))
    .map(" {}\n".format), max_size=6).map("".join)
_FORMAT_TEXT = st.lists(
    st.tuples(st.sampled_from(["", " ", "\t"]), _FORMAT_LINE,
              st.sampled_from(["\n", "\r\n", "\x85", " \n", ""]))
    .map("".join), max_size=8).map("".join)

# Lines that reach every branch of the line grammar and of the checks
# after it: canonical lines, whitespace inside and around them, bracketed
# items and the ],,[ mark, undeclared, clashing and stray names, and ?arg
# and dependency lines, which an AF text refuses; now and then a line
# that the grammar refuses, with an unprintable identifier or three att
# names, or a line cut short.
_WELL_FORMED_LINE = st.sampled_from([
    "arg(a).", "arg(b).", "?arg(b).", "?arg(c).", "?arg(a).", "att(a,b).",
    "att(b,c).", "att(a,d).", "or([b,c]).", "nand([b,c]).", "or([b,d]).",
    "imply([b],[c]).", "att( a , b ).", "or([ b , c ]).", "imply([b] ,[c]).",
    "% note", "%", "", "---", "?arg([a]).", "?arg([b).", "?arg([c]).",
    "or([[a],[b]).", "nand([[a],[b],[c]]).", "imply([[a],[b],,[c]).",
    "imply([[a],,[[b],[c]).", "imply([b],,[c])."])
_MALFORMED_LINE = st.sampled_from([
    "arg( a ).", "att(a,b,c).", "arg(a\x00).", "att(a,b\x00).",
    "or([b,c\x00]).", "imply([[a],[b],[c]).", "imply([b]).", "or(b).",
    "or([]).", "or([b,,c]).", "imply([b],[c],[b]).", "arg(a)", "att(a).",
    "x(a).", "arg()."])
_GRAMMAR_TEXT = st.lists(
    st.tuples(st.sampled_from(["", "", " ", "\t"]),
              st.one_of(*[_WELL_FORMED_LINE] * 10, _MALFORMED_LINE,
                        st.builds(lambda line, cut: line[:cut],
                                  _WELL_FORMED_LINE, st.integers(0, 12))),
              st.sampled_from(["", "", " ", "\t"]),
              st.sampled_from(["\n", "\n", "\r\n", "\x0b", "\u2028"]))
    .map("".join), max_size=6).map("".join)


def _outcome(parse, text):
    """What ``parse`` makes of ``text``: its value, or its error's class,
    message, line and column."""
    try:
        return parse(text)
    except UargError as error:
        return (type(error), str(error), getattr(error, "line", None),
                getattr(error, "column", None))


# JSON-shaped values for theory documents: each schema field is either of
# roughly the right shape or an arbitrary JSON value.
_FORMULA = st.sampled_from(["p", "~p", "q", "~q", "p'", "a b", ""])
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | _FORMULA
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def _or_json(shape):
    return st.one_of(shape, _JSON)


_FORMULAS = _or_json(st.lists(_or_json(_FORMULA), max_size=3))
_PAIRS = _or_json(st.lists(_or_json(st.lists(_FORMULA, min_size=2,
                                             max_size=2)), max_size=3))
_RULE = st.fixed_dictionaries({}, optional={
    "body": _FORMULAS, "head": _or_json(_FORMULA), "name": _or_json(_FORMULA),
    "kind": _or_json(st.sampled_from(["strict", "defeasible"])),
    "status": _or_json(st.sampled_from(["fixed", "uncertain"]))})
_KB = st.fixed_dictionaries({}, optional={
    key: _FORMULAS for key in ("axioms_fixed", "axioms_uncertain",
                               "premises_fixed", "premises_uncertain")})
_THEORY_DOCUMENT = _or_json(st.fixed_dictionaries({}, optional={
    "formulas": _FORMULAS, "contraries": _PAIRS, "preferences": _PAIRS,
    "close_negation": _or_json(st.booleans()), "kb": _or_json(_KB),
    "rules": _or_json(st.lists(_or_json(_RULE), max_size=3))}))


@st.composite
def completion_sets(draw):
    names = draw(st.lists(
        st.text(min_size=1, max_size=4).filter(is_valid_argument_id),
        max_size=5, unique=True))
    members = []
    for _ in range(draw(st.integers(0, 4))):
        args = draw(st.lists(st.sampled_from(names), unique=True)) \
            if names else []
        pairs = [(s, t) for s in args for t in args]
        defeats = draw(st.lists(st.sampled_from(pairs), unique=True)) \
            if pairs else []
        members.append(AbstractAF(args, defeats))
    return CompletionSet(members)


class TestTheoryJson:
    def test_round_trip_rul_isaf(self):
        ex4 = fixtures.get("example4")
        doc = theory_document_of(ex4)
        rebuilt = build_rul_isaf(load_theory_document(doc))
        assert rebuilt == ex4

    def test_round_trip_prem_isaf(self):
        ex5 = fixtures.get("example5")
        rebuilt = build_prem_isaf(load_theory_document(theory_document_of(ex5)))
        assert rebuilt == ex5

    def test_round_trip_saf(self):
        ex3 = fixtures.get("example3")
        rebuilt = build_saf(load_theory_document(theory_document_of(ex3)))
        assert rebuilt == ex3

    def test_primed_formulas_round_trip(self):
        # tidying primes p; both translations' documents load back as is
        source = load_framework(json.dumps(UNTIDY_DOC), "prem-isaf")
        for translation, kind in ((tidy, "prem-isaf"),
                                  (prem_isaf_to_rul_isaf, "rul-isaf")):
            target, _ = translation(source)
            text = serialize_framework(target)
            assert "p'" in text
            assert load_framework(text, kind) == target

    def test_non_fresh_priming_rejected_by_tidy(self):
        source = load_framework(json.dumps({**UNTIDY_DOC,
                                            "formulas": ["p'"]}),
                                "prem-isaf")
        assert "p'" in source.theory.formulas
        with pytest.raises(InvalidTheoryError, match="priming is not fresh"):
            tidy(source)

    def test_invalid_json(self):
        with pytest.raises(ParseError):
            load_theory_document("{not json")

    def test_invalid_formula_token(self):
        with pytest.raises(InvalidTheoryError):
            load_theory_document({"kb": {"premises_fixed": ["a b"]}})

    @pytest.mark.parametrize("document", [
        {"rules": [{"body": []}]},
        {"rules": [{"body": [], "head": 5}]},
        {"rules": [{"head": "p", "name": ["n"]}]},
        {"contraries": 5},
        {"contraries": [[1, "p"]]},
        {"rules": None},
        {"preferences": {"a": "b"}},
        {"close_negation": "false"},
    ], ids=["no-head", "int-head", "list-name", "int-contraries",
            "int-pair-member", "null-rules", "object-preferences",
            "string-close-negation"])
    def test_malformed_fields_are_theory_errors(self, document):
        with pytest.raises(InvalidTheoryError):
            load_theory_document(document)

    def test_unconvertible_json_is_a_parse_error(self):
        with pytest.raises(ParseError):
            load_theory_document("[" * 100_000)
        with pytest.raises(ParseError):
            load_theory_document("1" * 5_000)

    @pytest.mark.parametrize("fixture", ["example3", "example4", "example5"])
    def test_theory_read_back_validating_each_formula_once(self, monkeypatch,
                                                           fixture):
        framework = fixtures.get(fixture)
        document = theory_document_of(framework)
        calls = []
        original = aspic.is_valid_formula

        def counting(token):
            calls.append(token)
            return original(token)

        # patch every binding: a module importing the name would bypass a
        # patch of aspic alone
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("uarg") and \
                    getattr(module, "is_valid_formula", None) is original:
                monkeypatch.setattr(module, "is_valid_formula", counting)
        doc = load_theory_document(document)
        assert doc.theory == framework.theory
        assert sorted(calls) == sorted(doc.theory.formulas)

    @pytest.mark.parametrize("kind", ["saf", "rul-isaf", "prem-isaf"])
    @pytest.mark.parametrize("fault, message", [
        ({}, "formula 'p' has no contradictory; add contrary pairs or "
             "enable close_negation"),
        ({"close_negation": True, "kb": {"axioms_fixed": ["p"],
                                         "premises_uncertain": ["p"]}},
         "formulas cannot be both axiom and ordinary premise: ['p']"),
        ({"close_negation": True,
          "rules": [{"head": "q", "kind": "strict", "name": "n",
                     "status": "uncertain"}]},
         "naming is only defined for defeasible rules of the theory: "
         "[]=s>q"),
    ], ids=["no-contradictory", "axiom-and-premise", "named-strict-rule"])
    def test_theory_error_before_kind(self, kind, fault, message):
        # uncertain rules and uncertain knowledge: a kind no reader takes
        document = {"rules": [{"head": "q", "status": "uncertain"}],
                    "kb": {"premises_uncertain": ["p"]}, **fault}
        with pytest.raises(InvalidTheoryError) as info:
            load_framework(json.dumps(document), kind)
        assert str(info.value) == f"INVALID_THEORY: {message}"

    @pytest.mark.parametrize("second", [
        {"head": "q", "name": "n"},
        {"head": "q", "name": "m", "status": "uncertain"},
        {"head": "q", "name": "m"},
    ], ids=["other-name", "other-status", "exact-repeat"])
    def test_rule_listed_twice(self, second):
        # the same body, head and kind is the same rule, whatever its name
        # or status; a repeat is a shape error, so it comes before the
        # theory error (q has no contradictory)
        document = {"rules": [{"head": "q", "name": "m"}, second]}
        with pytest.raises(InvalidTheoryError) as info:
            load_theory_document(document)
        assert str(info.value) == \
            "INVALID_THEORY: rule []=d>q is listed twice"

    @pytest.mark.parametrize("part", ["axioms", "premises"])
    def test_formula_fixed_and_uncertain(self, part):
        # a shape error, so it comes before the theory error (no
        # contradictory without close_negation), read alone or as prem-isaf
        document = {"kb": {f"{part}_fixed": ["q", "p"],
                           f"{part}_uncertain": ["r", "q", "p"]}}
        for read in (load_theory_document,
                     lambda doc: load_framework(json.dumps(doc), "prem-isaf")):
            with pytest.raises(InvalidTheoryError) as info:
                read(document)
            assert str(info.value) == \
                "INVALID_THEORY: formula 'p' is listed as both fixed and " \
                "uncertain"

    def test_rules_differing_in_body_or_kind_are_distinct(self):
        doc = load_theory_document({"close_negation": True, "rules": [
            {"head": "q"}, {"head": "q", "kind": "strict"},
            {"body": ["p"], "head": "q"}]})
        assert len(doc.theory.rules) == 3
        # and the writer lists each rule once, so its document loads back
        written = theory_document_of(SAF(doc.theory))
        assert len(written["rules"]) == 3
        assert load_theory_document(written).theory == doc.theory

    def test_serialization_is_deterministic(self):
        ex4 = fixtures.get("example4")
        assert serialize_framework(ex4) == serialize_framework(ex4)
        json.loads(serialize_framework(ex4))


class TestCompletionSetDocuments:
    def test_round_trip(self):
        cs = CompletionSet([
            AbstractAF(["a", "b"], [("a", "b")]),
            AbstractAF(["a"]),
            AbstractAF(),
        ])
        assert parse_completion_set(serialize_completion_set(cs)) == cs

    def test_empty_document_is_empty_set(self):
        assert parse_completion_set("") == CompletionSet()

    def test_single_empty_framework(self):
        cs = CompletionSet([AbstractAF()])
        text = serialize_completion_set(cs)
        assert text == "---\n"
        assert parse_completion_set(text) == cs

    def test_bytes_are_member_texts_in_order(self):
        rng = random.Random(5)
        sets = [CompletionSet(), CompletionSet([AbstractAF()])]
        sets += [completions_arg_iaf(random_arg_iaf(rng, max_args=5))
                 for _ in range(40)]
        assert any(not af.args for cs in sets[2:] for af in cs)
        for cs in sets:
            assert serialize_completion_set(cs) == "".join(
                serialize_af(af) + "---\n" for af in cs)
        assert serialize_completion_set(CompletionSet()) == ""

    def test_missing_trailing_separator_tolerated(self):
        text = "arg(a).\n---\narg(b)."
        cs = parse_completion_set(text)
        assert cs == CompletionSet([AbstractAF(["a"]), AbstractAF(["b"])])


def _random_dep_arg_iaf(rng: random.Random) -> DepArgIAF:
    """An arg-IAF of up to 7 arguments with up to 3 random dependencies
    over its uncertain arguments."""
    iaf = random_arg_iaf(rng, max_args=7)
    uncertain = list(iaf.uncertain_args)
    deps = []
    for _ in range(rng.randint(0, 3) if uncertain else 0):
        first, second = (rng.sample(uncertain, rng.randint(1, len(uncertain)))
                         for _ in range(2))
        deps.append(rng.choice([ImplyDisj(first, second), Or(first),
                                Nand(first)]))
    return DepArgIAF(iaf, deps)


def _union_of_lines(count: int) -> CompletionSet:
    """A set whose union graph has ``count`` lines: about half of them
    arguments, the rest a ring of defeats and self-defeats.  Its members
    are the whole graph, the graph with its first defeat lacking, the
    first half and every other argument with induced defeats, one lone
    argument and the empty framework."""
    names = [f"a{i}" for i in range(count // 2 + 1)]
    ring = [(a, names[(i + 1) % len(names)]) for i, a in enumerate(names)]
    defeats = (ring + [(a, a) for a in names])[:count - len(names)]
    whole = AbstractAF(names, defeats)
    return CompletionSet([whole, AbstractAF(names, defeats[1:]),
                          restrict(whole, names[:len(names) // 2]),
                          restrict(whole, names[::2]),
                          restrict(whole, names[-1:]), AbstractAF()])


def _writer_cases() -> list[CompletionSet]:
    rng = random.Random(20)
    cases = [CompletionSet(), CompletionSet([AbstractAF()]),
             CompletionSet([AbstractAF(["a"], [("a", "a")])])]
    cases += [completions_dep(_random_dep_arg_iaf(rng)) for _ in range(60)]
    cases += [completions_arg_iaf(random_arg_iaf(rng, max_args=6))
              for _ in range(40)]
    for _ in range(40):  # members lacking defeats of the union graph
        names = rng.sample("abcdef", rng.randint(1, 6))
        members = []
        for _ in range(rng.randint(1, 12)):
            args = rng.sample(names, rng.randint(0, len(names)))
            pairs = [(s, t) for s in args for t in args]
            members.append(AbstractAF(args, rng.sample(
                pairs, rng.randint(0, len(pairs)))))
        cases.append(CompletionSet(members))
    cases += [completions_dep(diaf) for diaf, _, _ in nand_cut_cases()]
    cases += [_union_of_lines(n) for n in (7, 8, 9, 63, 64, 65)]
    names = [f"w{i}" for i in range(70)]
    chain70 = AbstractAF(names, zip(names, names[1:]))
    cases.append(CompletionSet([chain70, restrict(chain70, names[:40]),
                                restrict(chain70, names[::3]),
                                AbstractAF(names[5:])]))
    return cases


class TestColumnWriter:
    def test_cases_reach_every_shape(self):
        cases = _writer_cases()
        n_lines = [len(cs._graph.args) + len(cs._graph.defeats)
                   for cs in cases]
        assert {7, 8, 9, 63, 64, 65} <= set(n_lines)
        assert max(len(cs._graph.args) for cs in cases) == 70
        # some key has a lack bit: a member without a defeat between two
        # of its arguments
        assert any(key >> len(cs._graph.args)
                   for cs in cases for key in cs._keys)
        assert any(len(cs) == 1 and cs._graph.args for cs in cases)

    def test_matches_per_member_writer(self):
        cases = _writer_cases()
        with no_member_built():
            texts = [serialize_completion_set(cs) for cs in cases]
        for cs, text in zip(cases, texts):
            assert text == per_member_serialize_completion_set(cs)
            assert text == "".join(serialize_af(af) + "---\n" for af in cs)
            with frameworks_built() as built:
                read = parse_completion_set(text)
            # the union graph, whatever the member count, and no member
            assert built == [1] and read._members is None
            assert read == cs


def _cached_member_keys(cs: CompletionSet) -> tuple[int, ...]:
    """The keys of the members ``cs`` holds, in the order it holds them."""
    key = _key_coder(cs._graph)
    return tuple(key(af.args, af.defeats) for af in cs._members)


class TestKeyedConstructor:
    def test_matches_sorted_oracle(self):
        rng = random.Random(21)
        for cs in _writer_cases():
            members = list(cs)
            rng.shuffle(members)
            expected = sorted_completion_set(members)
            keys = [*cs._keys, *cs._keys]
            rng.shuffle(keys)
            got = CompletionSet._keyed(cs._graph, keys)
            assert got._graph == expected._graph
            assert got._keys == expected._keys
            assert got._ordered().keys == _cached_member_keys(expected)
            assert list(got) == list(expected)
            assert serialize_completion_set(got) == \
                serialize_completion_set(expected)
            assert hash(got) == hash(expected)

    def test_equal_members_out_of_order(self):
        lacking = AbstractAF(["a", "b"])
        members = [AbstractAF(["b"]), AbstractAF(["a", "b"], [("a", "b")]),
                   lacking, AbstractAF(["a"]), AbstractAF(["a", "b"])]
        assert members[2] == members[4] and members[2] is not members[4]
        given = CompletionSet(members)
        expected = CompletionSet(
            [AbstractAF(["a"]), lacking,
             AbstractAF(["a", "b"], [("a", "b")]), AbstractAF(["b"])])
        assert len(given) == len(expected) == 4
        assert given._keys == expected._keys
        # member order is the order of the distinct members' (args,
        # defeats) pairs
        key = _key_coder(given._graph)
        assert given._ordered().keys == tuple(starmap(key, sorted(
            {(af.args, af.defeats) for af in members})))
        assert hash(given) == hash(expected)
        assert list(given) == list(expected)

    def test_members_come_from_keys(self):
        # the public constructor keys what it is given and keeps no member:
        # repeats collapse in the keys, and the members iterated are
        # decoded from them
        rng = random.Random(23)
        for cs in _key_order_cases():
            members = list(cs)
            repeated = members + rng.sample(members, len(members) // 3)
            rng.shuffle(repeated)
            with frameworks_built() as built:
                got = CompletionSet(repeated)
            assert built == [1] and got._members is None
            unique = {(af.args, af.defeats): af for af in repeated}
            assert list(got) == [unique[pair] for pair in sorted(unique)]


def _key_order_cases() -> list[CompletionSet]:
    """The writer's cases, 60 restricted sets, and each restricted set
    with one more member: its member with the most defeats less its first
    defeat, which shares that member's argument mask and differs from it
    by a lack bit."""
    rng = random.Random(22)
    cases = _writer_cases()
    for _ in range(60):
        restricted = completions_arg_iaf(random_arg_iaf(rng, max_args=6))
        cases.append(restricted)
        widest = max(restricted, key=lambda af: len(af.defeats))
        if widest.defeats:
            cases.append(CompletionSet(
                [*restricted, AbstractAF(widest.args, widest.defeats[1:])]))
    return cases


def _insertion_orders(keys: frozenset[int]) -> list[list[int]]:
    """The keys ascending, descending and shuffled.  Keys k and k + 2**m
    share their slot in a hash table of at most 2**m slots, so the one
    inserted first takes it, and the frozensets iterate differently."""
    ascending = sorted(keys)
    shuffled = ascending[:]
    random.Random(len(keys)).shuffle(shuffled)
    return [ascending, ascending[::-1], shuffled]


class TestKeyOrder:
    """Nothing a set answers depends on the order its key frozenset
    iterates in."""

    @staticmethod
    def outcome(cs: CompletionSet, target: CompletionSet,
                witnesses: list[Witness]) -> tuple:
        """Equivalence by the identity alone, and by search both ways on
        unions small enough to search, and the witnesses checked."""
        results = [equivalent(cs, cs, identity_only=True),
                   equivalent(cs, target, identity_only=True)]
        if len(cs.argument_union()) <= 8:
            results += [equivalent(cs, target), equivalent(target, cs)]
        return ([(r.verdict, r.witness, r.nodes, r.prunes) for r in results],
                [check_witness(cs, target, w) for w in witnesses])

    def test_insertion_order_changes_nothing(self):
        reordered = reordered_lacking = 0
        for cs in _key_order_cases():
            sets = [CompletionSet._keyed(cs._graph, keys)
                    for keys in _insertion_orders(cs._keys)]
            if len({tuple(s._keys) for s in sets}) > 1:
                reordered += 1
                # some key has a lack bit
                reordered_lacking += max(cs._keys) >> len(cs._graph.args) > 0
            names = sorted(cs.argument_union())
            rename = Witness({a: f"r{i}" for i, a in enumerate(names)})
            target = rename.apply(cs)
            # the images reversed, which maps most sets wrongly
            images = [f"r{i}" for i in range(len(names))][::-1]
            witnesses = [rename, Witness(zip(names, images))]
            expected = self.outcome(cs, target, witnesses)
            text = serialize_completion_set(cs)
            for got in sets:
                assert got == cs and hash(got) == hash(cs)
                assert list(got) == list(cs)
                assert serialize_completion_set(got) == text
                assert self.outcome(got, target, witnesses) == expected
        # sets that iterate differently, some with lack bits (76 and 50
        # of 259 cases)
        assert reordered >= 70 and reordered_lacking >= 40


# Lines for random completion-set documents, with their weights: valid
# graph lines, which repeat, an att line that no arg line declares, a few
# bad lines, comments, blank lines and separators with whitespace around
# them.
_DOC_LINES = {"arg(a).": 6, "arg(b).": 6, " arg(c).": 6, "att(a,b).": 3,
              "att(b, a).": 3, "att(c,a).": 3, "att(a,a).": 3,
              "att(a,d).": 1, "arg(a": 0.3, "att(a).": 0.3,
              "arg(b\x00).": 0.3, "x": 0.3, "% note": 1, "": 1, "  ": 1,
              "---": 5, " ---\t": 2}


class TestLineOnceReader:
    def test_empty_sections(self):
        text = "---\n---\narg(a).\n---\n\n---\n"
        assert parse_completion_set(text) == CompletionSet(
            [AbstractAF(), AbstractAF(["a"])])

    def test_comment_only_tail_is_a_member(self):
        assert parse_completion_set("arg(a).\n---\n% note\n") == \
            CompletionSet([AbstractAF(["a"]), AbstractAF()])
        assert len(parse_completion_set("% note")) == 1

    def test_whitespace_only_tail_is_no_member(self):
        assert parse_completion_set("arg(a).\n---\n  \n\t\n") == \
            CompletionSet([AbstractAF(["a"])])
        assert len(parse_completion_set(" \n\n")) == 0

    def test_repeated_att_line(self):
        text = "arg(a).\narg(b).\natt(a,b).\natt(a,b).\n---\n"
        assert parse_completion_set(text) == \
            CompletionSet([AbstractAF(["a", "b"], [("a", "b")])])

    def test_separator_with_whitespace(self):
        assert parse_completion_set("arg(a).\n  ---\t\narg(b).\n") == \
            CompletionSet([AbstractAF(["a"]), AbstractAF(["b"])])

    def test_line_valid_once_is_checked_in_each_member(self):
        text = ("arg(a).\narg(b).\natt(a,b).\n---\n"
                "arg(a).\natt(a,b).\n---\n")
        with pytest.raises(UndeclaredArgumentError, match="line 6: ") as info:
            parse_completion_set(text)
        assert "'b'" in str(info.value)

    def test_bad_line_keeps_document_position(self):
        # first seen in the second member, after a valid repeated line
        with pytest.raises(ParseError) as info:
            parse_completion_set("arg(a).\n---\narg(a).\n   att(a).\n")
        assert (info.value.line, info.value.column) == (4, 4)
        # a member's own bad line comes before its undeclared endpoint
        with pytest.raises(ParseError) as info:
            parse_completion_set("att(a,b).\narg(a\n")
        assert (info.value.line, info.value.column) == (2, 1)
        # an earlier member's undeclared endpoint comes before a later
        # member's bad line
        with pytest.raises(UndeclaredArgumentError, match="line 1: "):
            parse_completion_set("att(a,b).\n---\narg(a\n")

    def test_matches_sectioned_reader(self):
        rng = random.Random(7)
        for _ in range(3000):
            text = "\n".join(rng.choices(list(_DOC_LINES),
                                          list(_DOC_LINES.values()),
                                          k=rng.randint(0, 24)))
            text += rng.choice(["", "\n"])
            try:
                with frameworks_built() as built:
                    got = parse_completion_set(text)
                # the union graph, whatever the member count, and no member
                assert built == [1] and got._members is None
            except UargError as error:
                got = (type(error), str(error))
            try:
                expected = sectioned_parse_completion_set(text)
            except UargError as error:
                expected = (type(error), str(error))
            assert got == expected, text


class TestCompletionSetFuzz:
    @given(_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_only_uarg_errors_escape(self, text):
        try:
            parsed = parse_completion_set(text)
        except UargError:
            return
        assert parse_completion_set(serialize_completion_set(parsed)) == parsed

    @given(completion_sets())
    @settings(max_examples=200, deadline=None)
    def test_parse_inverts_serialize(self, cs):
        assert parse_completion_set(serialize_completion_set(cs)) == cs

    def test_invalid_identifier_is_a_parse_error(self):
        with pytest.raises(ParseError, match="invalid identifier") as info:
            parse_completion_set("arg(a).\n  arg(b\x00).\n---\narg(c).")
        assert (info.value.line, info.value.column) == (2, 3)
        # lines count through the whole document, not within a section
        with pytest.raises(ParseError, match="invalid identifier") as info:
            parse_completion_set("arg(a).\n---\n% b\n  arg(b\x00).\n")
        assert (info.value.line, info.value.column) == (4, 3)


class TestFrameworkTextFuzz:
    @given(_FORMAT_TEXT)
    @settings(max_examples=400, deadline=None)
    def test_only_uarg_errors_escape(self, text):
        for parse, serialize in ((parse_af, serialize_af),
                                 (parse_iaf, serialize_iaf)):
            try:
                parsed = parse(text)
            except UargError:
                continue
            assert parse(serialize(parsed)) == parsed

    @given(_GRAPH_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_one_grammar_for_af_and_iaf(self, text):
        # The AF parser and the IAF parser read arg/att lines alike: the
        # same framework, or the same error class with the same message,
        # which starts with the line.
        outcomes = []
        for parse in (parse_af, lambda t: parse_iaf(t).base.full_af()):
            try:
                outcomes.append(parse(text))
            except UargError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


class TestOneLineGrammar:
    @given(_GRAMMAR_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_matches_linewise_readers(self, text):
        for parse, oracle in (
                (parse_af, linewise_parse_af),
                (parse_iaf, linewise_parse_iaf),
                (parse_completion_set, sectioned_parse_completion_set)):
            assert _outcome(parse, text) == _outcome(oracle, text), parse

    def test_dependency_errors_carry_the_column(self):
        for text, message in (
                ("   or([b).\n", "or arguments must be bracketed lists"),
                ("   imply([b]).\n", "imply needs exactly two lists"),
                ("   nand([b,c\x00]).\n", "invalid identifier in")):
            with pytest.raises(ParseError, match=message) as info:
                parse_iaf("arg(a).\n?arg(b).\n" + text)
            assert (info.value.line, info.value.column) == (3, 4)

    def test_first_stray_dependency_line_is_reported(self):
        # each line's own stray names, not the first a set iterates over
        text = ("arg(a).\n?arg(b).\nor([b,c]).\nor([b,d]).\n"
                "nand([b,e]).\n")
        with pytest.raises(UndeclaredArgumentError) as info:
            parse_iaf(text)
        assert str(info.value) == (
            "UNDECLARED_ARGUMENT: line 3: dependency mentions arguments "
            "that are not uncertain: ['c']")


class TestTheoryDocumentFuzz:
    @given(_THEORY_DOCUMENT, st.sampled_from(["saf", "rul-isaf", "prem-isaf"]))
    @settings(max_examples=500, deadline=None)
    def test_only_uarg_errors_escape(self, document, kind):
        try:
            framework = load_framework(json.dumps(document), kind)
        except UargError:
            return
        assert load_framework(serialize_framework(framework), kind) \
            == framework


class TestFrameworkLoading:
    def test_af(self):
        assert load_framework("arg(a).", "af") == AbstractAF(["a"])

    def test_arg_iaf_rejects_dependencies(self):
        with pytest.raises(ParseError):
            load_framework("?arg(a).\nor([a]).", "arg-iaf")

    def test_arg_iaf_dependency_error_names_the_dependency_line(self):
        with pytest.raises(ParseError) as info:
            load_framework("arg(a).\n?arg(b).\n  or([b]).\nnand([b]).\n",
                           "arg-iaf")
        assert (info.value.line, info.value.column) == (3, 3)

    def test_dep_arg_iaf(self):
        diaf = load_framework("?arg(a).\nor([a]).", "dep-arg-iaf")
        assert len(diaf.deps) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            load_framework("", "mystery")

    @pytest.mark.parametrize("fixture, kind, message", [
        ("example4", "prem-isaf",
         "premise-incomplete documents may not declare uncertain rules"),
        ("example4", "saf",
         "document declares uncertainty; load it as rul-isaf or prem-isaf"),
        ("example5", "rul-isaf",
         "rule-incomplete documents may not declare uncertain knowledge"),
        ("example5", "saf",
         "document declares uncertainty; load it as rul-isaf or prem-isaf"),
    ])
    def test_uncertainty_of_another_kind(self, fixture, kind, message):
        text = serialize_framework(fixtures.get(fixture))
        with pytest.raises(MixedUncertaintyError) as info:
            load_framework(text, kind)
        assert str(info.value) == f"MIXED_UNCERTAINTY: {message}"

    def test_structured_round_trip_through_text(self):
        ex4 = fixtures.get("example4")
        text = serialize_framework(ex4)
        assert load_framework(text, "rul-isaf") == ex4
