import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uarg import (
    AbstractAF,
    af_equal,
    extensions,
    is_admissible,
    is_conflict_free,
    parse_af,
    parse_iaf,
    restrict,
    serialize_af,
)
from uarg.aspic import is_valid_formula
from uarg.core import is_valid_argument_id
from uarg.errors import MemberNotInAFError, ParseError, UndeclaredArgumentError

from oracles import (
    charwise_is_valid_argument_id,
    charwise_is_valid_formula,
    naive_extensions,
)

EX1_FULL = AbstractAF(["a", "b", "c"], [("b", "a"), ("c", "a")])


class TestValidators:
    """The one-pattern validators against their per-character oracles."""

    TOKENS = ["a", "p_a", "~p_a", "[p_a;p_b]=d>p_c", "[]=s>p", "[]=d>p_a",
              "a b", "a\tb", "a\u00a0b", "a\u2028b", "a\u3000", "a(b", "a)b",
              "a,b", "a.b", "a;b", "a[b", "a]b", "p'", "\u00e9t\u00e9", "a\x00b",
              "a\x85", "\u200bz", "a\ud800", "\U0001f600x", "", " "]

    def test_every_code_point(self):
        for code in range(0x110000):
            ch = chr(code)
            assert is_valid_argument_id(ch) == \
                charwise_is_valid_argument_id(ch), hex(code)
            assert is_valid_formula(ch) == charwise_is_valid_formula(ch), \
                hex(code)

    def test_tokens(self):
        for token in self.TOKENS:
            assert is_valid_argument_id(token) == \
                charwise_is_valid_argument_id(token), token
            assert is_valid_formula(token) == \
                charwise_is_valid_formula(token), token
        assert is_valid_argument_id("[p_a;p_b]=d>p_c")
        assert not is_valid_formula("[p_a;p_b]=d>p_c")
        assert not is_valid_formula(5) and not charwise_is_valid_formula(5)


class TestRestrict:
    def test_drops_arguments_and_induced_defeats(self):
        got = restrict(EX1_FULL, {"a", "b"})
        assert got == AbstractAF(["a", "b"], [("b", "a")])

    def test_identity_on_full_argument_set(self):
        assert restrict(EX1_FULL, set(EX1_FULL.args)) == EX1_FULL

    def test_empty_keep(self):
        af = AbstractAF(["a", "b"], [("a", "b")])
        assert restrict(af, set()) == AbstractAF()

    def test_extra_names_in_keep_are_ignored(self):
        af = AbstractAF(["a"], [])
        assert restrict(af, {"a", "zz"}) == af

    def test_idempotent_and_monotone(self):
        rng = random.Random(7)
        names = ["a", "b", "c", "d"]
        for _ in range(50):
            defeats = [(s, t) for s in names for t in names
                       if rng.random() < 0.3]
            af = AbstractAF(names, defeats)
            keep = {n for n in names if rng.random() < 0.5}
            bigger = keep | {n for n in names if rng.random() < 0.5}
            assert restrict(restrict(af, keep), keep) == restrict(af, keep)
            assert restrict(af, keep) == restrict(restrict(af, bigger), keep)
            # the unchecked result is the framework the validating
            # constructor builds from the same arguments and defeats
            checked = AbstractAF(
                [n for n in reversed(names) if n in keep],
                [(s, t) for s, t in reversed(defeats)
                 if s in keep and t in keep])
            assert restrict(af, keep) == checked
            assert hash(restrict(af, keep)) == hash(checked)


class TestEquality:
    def test_equal_same_sets(self):
        assert af_equal(AbstractAF(["a"]), AbstractAF(["a"]))

    def test_defeat_direction_matters(self):
        assert not af_equal(AbstractAF(["a", "b"], [("a", "b")]),
                            AbstractAF(["a", "b"], [("b", "a")]))

    def test_two_distinct_completions_differ(self):
        af1 = restrict(EX1_FULL, {"a", "b"})
        af2 = restrict(EX1_FULL, {"a", "c"})
        assert not af_equal(af1, af2)

    def test_construction_is_canonical(self):
        x = AbstractAF(["b", "a"], [("b", "a")])
        y = AbstractAF(["a", "b"], [("b", "a")])
        assert x == y and hash(x) == hash(y)

    def test_defeat_endpoints_must_be_declared(self):
        with pytest.raises(UndeclaredArgumentError):
            AbstractAF(["a"], [("a", "b")])


class TestExtensionChecks:
    def test_conflict_free_example(self):
        assert is_conflict_free(EX1_FULL, {"b", "c"})

    def test_empty_extension_conflict_free(self):
        assert is_conflict_free(EX1_FULL, set())

    def test_self_defeat(self):
        af = AbstractAF(["a"], [("a", "a")])
        assert not is_conflict_free(af, {"a"})

    def test_member_outside_framework(self):
        with pytest.raises(MemberNotInAFError):
            is_conflict_free(EX1_FULL, {"zz"})

    def test_undefended_argument_not_admissible(self):
        af = AbstractAF(["a", "b"], [("b", "a")])
        assert not is_admissible(af, {"a"})

    def test_empty_extension_admissible(self):
        assert is_admissible(EX1_FULL, set())

    def test_self_defence(self):
        af = AbstractAF(["a", "b"], [("a", "b"), ("b", "a")])
        assert is_admissible(af, {"a"})


class TestSemantics:
    def test_grounded_singleton(self):
        af = AbstractAF(["a"])
        assert extensions(af, "grounded") == (frozenset({"a"}),)

    def test_empty_framework(self):
        af = AbstractAF()
        for sigma in ("admissible", "complete", "grounded", "preferred",
                      "stable"):
            assert extensions(af, sigma) == (frozenset(),)

    def test_one_way_conflict(self):
        af = AbstractAF(["a", "b"], [("a", "b")])
        assert set(extensions(af, "admissible")) == {frozenset(),
                                                     frozenset({"a"})}
        accepted = {e for e in extensions(af, "admissible") if "b" in e}
        assert not accepted

    def test_unknown_semantics(self):
        with pytest.raises(ValueError):
            extensions(AbstractAF(), "stage")

    def test_matches_naive_oracle_on_random_afs(self):
        rng = random.Random(11)
        names = ["a", "b", "c", "d"]
        for _ in range(60):
            n = rng.randint(0, 4)
            defeats = [(s, t) for s in names[:n] for t in names[:n]
                       if rng.random() < 0.35]
            af = AbstractAF(names[:n], defeats)
            for sigma in ("admissible", "complete", "grounded", "preferred",
                          "stable"):
                assert set(extensions(af, sigma)) == naive_extensions(af, sigma), \
                    (af, sigma)

    def test_results_are_canonically_ordered(self):
        af = AbstractAF(["a", "b"], [("a", "b"), ("b", "a")])
        exts = extensions(af, "admissible")
        assert list(exts) == sorted(exts, key=sorted)


class TestTextFormat:
    def test_basic_lines(self):
        assert parse_af("arg(a).\narg(b).\natt(b,a).") == \
            AbstractAF(["a", "b"], [("b", "a")])

    def test_empty_text(self):
        assert parse_af("") == AbstractAF()

    def test_comments_and_blanks(self):
        text = "% header\n\narg(x).\n  % indented comment\n"
        assert parse_af(text) == AbstractAF(["x"])

    def test_round_trip_on_canonical_form(self):
        text = "arg(b).\narg(a).\narg(c).\natt(c,a).\natt(b,a).\n"
        af = parse_af(text)
        assert serialize_af(parse_af(serialize_af(af))) == serialize_af(af)
        assert serialize_af(af) == "arg(a).\narg(b).\narg(c).\natt(b,a).\natt(c,a).\n"

    def test_parse_error_has_position(self):
        # parse_iaf reports a fixed/uncertain clash at the line declaring
        # the argument again, not at the first att line
        for parse, text in ((parse_af, "arg(a).\narg(b.\n"),
                            (parse_iaf, "arg(a).\n?arg(a).\natt(a,a).\n")):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.line == 2

    def test_undeclared_attack_endpoint(self):
        with pytest.raises(UndeclaredArgumentError):
            parse_af("arg(a).\natt(a,b).")

    def test_bad_token_rejected(self):
        with pytest.raises(ParseError):
            parse_af("arg(a b).")

    @given(st.sets(st.text(alphabet="abcxyz_~[]=>;", min_size=1, max_size=6),
                   max_size=5),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, names, data):
        names = sorted(names)
        defeats = set()
        if names:
            for _ in range(data.draw(st.integers(0, 6))):
                defeats.add((data.draw(st.sampled_from(names)),
                             data.draw(st.sampled_from(names))))
        af = AbstractAF(names, defeats)
        assert parse_af(serialize_af(af)) == af
