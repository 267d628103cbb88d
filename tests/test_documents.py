import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uarg import (
    AbstractAF,
    CompletionSet,
    completions_arg_iaf,
    fixtures,
    parse_af,
    parse_iaf,
    prem_isaf_to_rul_isaf,
    serialize_af,
    serialize_iaf,
    tidy,
)
from uarg.core import is_valid_argument_id
from uarg.documents import (
    build_prem_isaf,
    build_rul_isaf,
    build_saf,
    document_kind,
    load_framework,
    load_theory_document,
    parse_completion_set,
    serialize_completion_set,
    serialize_framework,
    theory_document_of,
)
from uarg.errors import InvalidTheoryError, ParseError, UargError

from framework_gen import random_arg_iaf

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

    def test_kind_detection(self):
        assert document_kind(load_theory_document(
            theory_document_of(fixtures.get("example4")))) == "rul-isaf"
        assert document_kind(load_theory_document(
            theory_document_of(fixtures.get("example5")))) == "prem-isaf"
        assert document_kind(load_theory_document(
            theory_document_of(fixtures.get("example3")))) == "saf"

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

    def test_dep_arg_iaf(self):
        diaf = load_framework("?arg(a).\nor([a]).", "dep-arg-iaf")
        assert len(diaf.deps) == 1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            load_framework("", "mystery")

    def test_structured_round_trip_through_text(self):
        ex4 = fixtures.get("example4")
        text = serialize_framework(ex4)
        assert load_framework(text, "rul-isaf") == ex4
