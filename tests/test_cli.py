import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import uarg
from uarg.cli import _DIRECTIONS, main

EX1_IAF_TEXT = "arg(a).\n?arg(b).\n?arg(c).\natt(b,a).\natt(c,a).\n"


def run(*argv, **kwargs):
    return CliRunner().invoke(main, list(argv), **kwargs)


class TestCompletionsCommand:
    def test_fixture_example1_count(self):
        result = run("completions", "fixture:example1", "--count")
        assert result.exit_code == 0
        assert result.output.strip() == "4"

    def test_fixture_example4_count(self):
        result = run("completions", "fixture:example4", "--count")
        assert result.output.strip() == "4"

    def test_fixture_example5_count(self):
        result = run("completions", "fixture:example5", "--count")
        assert result.output.strip() == "2"

    def test_fixture_thm5_count(self):
        # imply([a,b],[c]) excludes exactly the {a,b} subset: 7 of 8 remain
        result = run("completions", "fixture:thm5_imp", "--count")
        assert result.output.strip() == "7"

    def test_file_input_document_output(self, tmp_path):
        path = tmp_path / "ex1.iaf"
        path.write_text(EX1_IAF_TEXT, encoding="utf-8")
        result = run("completions", str(path), "--kind", "arg-iaf")
        assert result.exit_code == 0
        assert result.output.count("---") == 4
        assert "att(b,a)." in result.output

    def test_count_goes_to_out(self, tmp_path):
        # --out takes the count line as it takes the document
        out = tmp_path / "count.txt"
        result = run("completions", "fixture:example1", "--count",
                     "--out", str(out))
        assert result.exit_code == 0
        assert result.output == ""
        assert out.read_text(encoding="utf-8") == "4\n"

    def test_determinism(self):
        first = run("completions", "fixture:example4")
        second = run("completions", "fixture:example4")
        assert first.output == second.output

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.iaf"
        path.write_text("arg(a\n", encoding="utf-8")
        result = run("completions", str(path), "--kind", "arg-iaf")
        assert result.exit_code == 2

    def test_uncertainty_of_another_kind_exit_code(self, tmp_path):
        path = tmp_path / "ex4.json"
        path.write_text(run("fixtures", "emit", "example4").output,
                        encoding="utf-8")
        result = run("completions", str(path), "--kind", "prem-isaf")
        assert result.exit_code == 2
        assert result.stderr == ("MIXED_UNCERTAINTY: premise-incomplete "
                                 "documents may not declare uncertain rules\n")

    def test_theory_error_before_kind_exit_code(self, tmp_path):
        # uncertain knowledge read as rul-isaf: the theory is read, and
        # refused, before its uncertainty is compared with the kind
        path = tmp_path / "bare.json"
        path.write_text('{"kb": {"premises_uncertain": ["p"]}}',
                        encoding="utf-8")
        result = run("completions", str(path), "--kind", "rul-isaf")
        assert result.exit_code == 2
        assert result.stderr == (
            "INVALID_THEORY: formula 'p' has no contradictory; add contrary "
            "pairs or enable close_negation\n")

    def test_bound_exit_code(self, tmp_path):
        path = tmp_path / "wide.iaf"
        path.write_text("".join(f"?arg(u{i}).\n" for i in range(8)),
                        encoding="utf-8")
        result = run("--max-uncertain", "4", "completions", str(path),
                     "--kind", "arg-iaf")
        assert result.exit_code == 3


# A fixed premise p that an empty-bodied rule also derives: tidying primes
# it, so the tidied and premise-to-rule outputs hold the formula p'.
UNTIDY_DOC = {"close_negation": True,
              "rules": [{"body": [], "head": "p", "kind": "defeasible"}],
              "kb": {"premises_fixed": ["p"]}}

TRANSLATE_SOURCES = {"arg-iaf": "fixture:example1",
                     "rul-isaf": "fixture:thm3_rul",
                     "prem-isaf": "fixture:example5"}


class TestTranslateCommand:
    @pytest.mark.parametrize("from_kind, to_kind", sorted(_DIRECTIONS))
    def test_verify_direction(self, from_kind, to_kind):
        result = run("translate", TRANSLATE_SOURCES[from_kind],
                     "--from", from_kind, "--to", to_kind, "--verify")
        assert result.exit_code == 0, result.output
        assert "verified" in result.stderr

    def test_full_delta_flag_removed(self):
        result = run("translate", "fixture:thm3_rul", "--from", "rul-isaf",
                     "--to", "imp-arg-iaf", "--full-delta")
        assert result.exit_code == 2

    @pytest.mark.parametrize("to_kind, kind", [
        ("tidy-prem-isaf", "prem-isaf"), ("rul-isaf", "rul-isaf")])
    def test_primed_output_reads_back(self, tmp_path, to_kind, kind):
        source = tmp_path / "untidy.json"
        source.write_text(json.dumps(UNTIDY_DOC), encoding="utf-8")
        out = tmp_path / "t.json"
        result = run("translate", str(source), "--from", "prem-isaf",
                     "--to", to_kind, "--verify", "--out-framework", str(out))
        assert result.exit_code == 0, result.output
        assert "p'" in out.read_text(encoding="utf-8")
        result = run("completions", str(out), "--kind", kind, "--count")
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "1"

    def test_non_fresh_priming_exit_two(self, tmp_path):
        source = tmp_path / "clash.json"
        source.write_text(json.dumps({**UNTIDY_DOC, "formulas": ["p'"]}),
                          encoding="utf-8")
        result = run("translate", str(source), "--from", "prem-isaf",
                     "--to", "tidy-prem-isaf")
        assert result.exit_code == 2
        assert result.stderr.startswith(
            "INVALID_THEORY: priming is not fresh")

    def test_tidy_input_preference_domain(self, tmp_path):
        source = tmp_path / "tidy.json"
        source.write_text(json.dumps({
            "close_negation": True,
            "kb": {"premises_fixed": ["p"], "premises_uncertain": ["q"]},
            "preferences": [["p", "zz"]],
        }), encoding="utf-8")
        result = run("translate", str(source), "--from", "prem-isaf",
                     "--to", "tidy-prem-isaf")
        assert result.exit_code == 2
        assert result.stderr.startswith(
            "PREFERENCE_REFERS_TO_UNKNOWN_ARGUMENT: ")

    def test_unsupported_direction(self):
        result = run("translate", "fixture:example1", "--from", "arg-iaf",
                     "--to", "imp-arg-iaf")
        assert result.exit_code == 2

    def test_emits_framework_and_witness(self):
        result = run("translate", "fixture:example1", "--from", "arg-iaf",
                     "--to", "prem-isaf")
        assert "=== witness ===" in result.output
        witness_part = result.output.split("=== witness ===\n")[1]
        payload = json.loads(witness_part)
        assert ["a", "p_a"] in payload["map"]

    def test_output_files(self, tmp_path):
        fw = tmp_path / "target.json"
        wt = tmp_path / "witness.json"
        result = run("translate", "fixture:example5", "--from", "prem-isaf",
                     "--to", "rul-isaf", "--verify",
                     "--out-framework", str(fw), "--out-witness", str(wt))
        assert result.exit_code == 0, result.output
        assert json.loads(fw.read_text())["rules"]
        assert json.loads(wt.read_text())["map"]


class TestEquivCommand:
    def test_equivalent_sets(self, tmp_path):
        left = tmp_path / "left.afs"
        right = tmp_path / "right.afs"
        left.write_text("arg(a).\n---\narg(a).\narg(b).\natt(a,b).\n---\n",
                        encoding="utf-8")
        right.write_text("arg(x).\n---\narg(x).\narg(y).\natt(x,y).\n---\n",
                         encoding="utf-8")
        result = run("equiv", str(left), str(right))
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["verdict"] == "equivalent"
        assert payload["witness"]["map"]

    def test_not_equivalent_exit_one(self, tmp_path):
        left = tmp_path / "left.afs"
        right = tmp_path / "right.afs"
        left.write_text("arg(a).\narg(b).\natt(a,b).\n---\n"
                        "arg(a).\narg(b).\natt(b,a).\n---\n",
                        encoding="utf-8")
        right.write_text("arg(a).\narg(b).\natt(a,b).\n---\n"
                         "arg(c).\narg(d).\natt(d,c).\n---\n",
                         encoding="utf-8")
        result = run("equiv", str(left), str(right))
        assert result.exit_code == 1
        assert json.loads(result.output)["verdict"] == "not_equivalent"

    def test_directory_input(self, tmp_path):
        left = tmp_path / "left"
        left.mkdir()
        (left / "one.apx").write_text("arg(a).\n", encoding="utf-8")
        right = tmp_path / "right.afs"
        right.write_text("arg(b).\n---\n", encoding="utf-8")
        result = run("equiv", str(left), str(right))
        assert result.exit_code == 0

    def test_identity_only_flag(self, tmp_path):
        left = tmp_path / "left.afs"
        right = tmp_path / "right.afs"
        left.write_text("arg(a).\n---\n", encoding="utf-8")
        right.write_text("arg(b).\n---\n", encoding="utf-8")
        assert run("equiv", str(left), str(right)).exit_code == 0
        assert run("equiv", "--identity-only", str(left),
                   str(right)).exit_code == 1

    def test_empty_documents_round_trip(self, tmp_path):
        # no subset satisfies or([b]) and nand([b]) together, so the
        # completion set is empty and `completions --out` writes nothing
        iaf = tmp_path / "z.iaf"
        iaf.write_text("?arg(b).\nor([b]).\nnand([b]).\n", encoding="utf-8")
        empty = tmp_path / "z.txt"
        assert run("completions", str(iaf), "--kind", "dep-arg-iaf",
                   "--out", str(empty)).exit_code == 0
        assert empty.read_text(encoding="utf-8") == ""
        for flags in ([], ["--identity-only"]):
            result = run("equiv", *flags, str(empty), str(empty))
            assert result.exit_code == 0
            payload = json.loads(result.output)
            assert payload["verdict"] == "equivalent"
            assert payload["witness"] == {"map": []}

    def test_empty_document_against_nonempty_exits_one(self, tmp_path):
        one = tmp_path / "one.afs"
        one.write_text("arg(a).\n---\n", encoding="utf-8")
        blank = tmp_path / "blank.afs"  # no section: the empty set
        blank.write_text("\n", encoding="utf-8")
        for left, right in ((one, blank), (blank, one)):
            result = run("equiv", str(left), str(right))
            assert result.exit_code == 1
            assert json.loads(result.output)["verdict"] == "not_equivalent"

    # A relabelled pair over 10 arguments: a0..a9 -> b*, with a2 and a6
    # uncertain and a self-defeat on a3.  Seven signature classes, and the
    # search backtracks, so the golden pins the order of the search.
    RELABEL = {"a0": "b1", "a1": "b2", "a2": "b4", "a3": "b8", "a4": "b5",
               "a5": "b6", "a6": "b7", "a7": "b9", "a8": "b0", "a9": "b3"}
    DEFEATS = [("a0", "a4"), ("a3", "a0"), ("a3", "a3"), ("a3", "a8"),
               ("a3", "a9"), ("a4", "a5"), ("a6", "a3"), ("a7", "a6")]
    GOLDEN = (
        '{"search": {"nodes": 32, "prunes": 8}, "verdict": "equivalent", '
        '"witness": {"map": [["a0", "b1"], ["a1", "b2"], ["a2", "b4"], '
        '["a3", "b8"], ["a4", "b5"], ["a5", "b6"], ["a6", "b7"], '
        '["a7", "b9"], ["a8", "b0"], ["a9", "b3"]]}}\n')

    @classmethod
    def document(cls, rename) -> str:
        """The four completions of the pair's argument-incomplete
        framework, under the given renaming."""
        parts = []
        for kept in ((), ("a2",), ("a6",), ("a2", "a6")):
            args = [a for a in cls.RELABEL if a not in ("a2", "a6")
                    or a in kept]
            parts += [f"arg({rename(a)}).\n" for a in args]
            parts += [f"att({rename(s)},{rename(t)}).\n"
                      for s, t in cls.DEFEATS if s in args and t in args]
            parts.append("---\n")
        return "".join(parts)

    def test_relabelled_search_golden(self, tmp_path):
        left = tmp_path / "left.afs"
        right = tmp_path / "right.afs"
        left.write_text(self.document(str), encoding="utf-8")
        right.write_text(self.document(self.RELABEL.__getitem__),
                         encoding="utf-8")
        result = run("equiv", str(left), str(right))
        assert result.exit_code == 0
        assert result.output == self.GOLDEN


class TestSemanticsCommand:
    def test_grounded_singleton(self, tmp_path):
        path = tmp_path / "one.apx"
        path.write_text("arg(a).\n", encoding="utf-8")
        result = run("semantics", str(path), "--sigma", "grounded")
        assert json.loads(result.output) == {
            "semantics": "grounded", "extensions": [["a"]]}

    def test_stable_on_empty(self, tmp_path):
        path = tmp_path / "empty.apx"
        path.write_text("", encoding="utf-8")
        result = run("semantics", str(path), "--sigma", "stable")
        assert json.loads(result.output) == {
            "semantics": "stable", "extensions": [[]]}


class TestSynthDepsCommand:
    def test_synthesize_from_target(self, tmp_path):
        iaf = tmp_path / "base.iaf"
        iaf.write_text(EX1_IAF_TEXT, encoding="utf-8")
        target = tmp_path / "target.afs"
        target.write_text("arg(a).\narg(b).\natt(b,a).\n---\n"
                          "arg(a).\narg(c).\natt(c,a).\n---\n",
                          encoding="utf-8")
        result = run("synth-deps", str(iaf), str(target))
        assert result.exit_code == 0
        assert "nand([b,c])." in result.output
        assert "or([b,c])." in result.output

    def test_target_not_subset(self, tmp_path):
        iaf = tmp_path / "base.iaf"
        iaf.write_text(EX1_IAF_TEXT, encoding="utf-8")
        target = tmp_path / "target.afs"
        target.write_text("arg(zz).\n---\n", encoding="utf-8")
        assert run("synth-deps", str(iaf), str(target)).exit_code == 2

    def test_empty_target_document(self, tmp_path):
        # the completion set of unsatisfiable dependencies is empty, and
        # `completions --out` writes it as an empty document
        iaf = tmp_path / "base.iaf"
        iaf.write_text("?arg(b).\n", encoding="utf-8")
        target = tmp_path / "target.afs"
        target.write_text("", encoding="utf-8")
        result = run("synth-deps", str(iaf), str(target))
        assert result.exit_code == 0
        assert result.output == "?arg(b).\nnand([b]).\nor([b]).\n"


class TestExportDot:
    def test_dashed_uncertain_nodes(self):
        result = run("export-dot", "fixture:example1")
        assert result.exit_code == 0
        assert result.output.count("[style=dashed]") == 2
        assert '"b" -> "a";' in result.output

    def test_plain_af(self, tmp_path):
        path = tmp_path / "af.apx"
        path.write_text("arg(a).\narg(b).\natt(a,b).\n", encoding="utf-8")
        result = run("export-dot", str(path), "--kind", "af")
        assert "style=dashed" not in result.output


class TestFixturesCommands:
    def test_list_contains_registry(self):
        result = run("fixtures", "list")
        for name in ("example1", "example4", "thm10_rul",
                     "remark_weak_equiv"):
            assert name in result.output

    def test_emit_iaf(self):
        result = run("fixtures", "emit", "example1")
        assert result.output == EX1_IAF_TEXT

    def test_emit_pair(self):
        result = run("fixtures", "emit", "remark_weak_equiv")
        assert "%% left" in result.output and "%% right" in result.output

    def test_emitted_documents_reload(self, tmp_path):
        out = tmp_path / "ex4.json"
        assert run("fixtures", "emit", "example4",
                   "--out", str(out)).exit_code == 0
        result = run("completions", str(out), "--kind", "rul-isaf", "--count")
        assert result.output.strip() == "4"


class TestFixtureSweep:
    """Every registered fixture through every command that reads one
    framework: a wrong kind is bad input, never an escaping exception."""

    @pytest.mark.parametrize("name", sorted(uarg.fixtures.REGISTRY))
    def test_no_exception_escapes(self, name):
        spec = f"fixture:{name}"
        kind = uarg.fixtures.REGISTRY[name].kind
        runs = [["completions", spec, "--count"], ["export-dot", spec],
                ["semantics", spec, "--sigma", "grounded"]]
        runs += [["translate", spec, "--from", kind, "--to", to, "--verify"]
                 for to in ("rul-isaf", "prem-isaf", "imp-arg-iaf",
                            "tidy-prem-isaf")]
        for argv in runs:
            result = run(*argv)
            assert result.exception is None \
                or isinstance(result.exception, SystemExit), argv
            assert result.exit_code in (0, 2), argv


class TestConfigLayers:
    def test_config_file(self, tmp_path):
        cfg = tmp_path / "uarg.cfg"
        cfg.write_text("max_uncertain = 1\n", encoding="utf-8")
        result = run("--config", str(cfg), "completions", "fixture:example1",
                     "--count")
        assert result.exit_code == 3

    def test_env_overrides_config(self, tmp_path, monkeypatch):
        cfg = tmp_path / "uarg.cfg"
        cfg.write_text("max_uncertain = 1\n", encoding="utf-8")
        monkeypatch.setenv("UARG_MAX_UNCERTAIN", "10")
        result = run("--config", str(cfg), "completions", "fixture:example1",
                     "--count")
        assert result.exit_code == 0

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("UARG_MAX_UNCERTAIN", "10")
        result = run("--max-uncertain", "1", "completions", "fixture:example1",
                     "--count")
        assert result.exit_code == 3

    def test_key_set_twice(self, tmp_path):
        # as in TOML, a key may be set once; the second is refused at its
        # line, rather than silently winning
        cfg = tmp_path / "uarg.cfg"
        cfg.write_text("max_uncertain = 1\n# again\nmax_uncertain = 10\n",
                       encoding="utf-8")
        result = run("--config", str(cfg), "completions", "fixture:example1",
                     "--count")
        assert result.exit_code == 2
        assert "PARSE_ERROR: line 3, column 1: config key 'max_uncertain' " \
            "given twice" in result.output


class TestErrorContract:
    """Bad input exits 2, an exceeded bound 3, each with one
    ``CODE: message`` line and no traceback.  Runs the CLI in a subprocess
    so an escaping exception would show."""

    @pytest.mark.parametrize("argv, env, code", [
        (["equiv", "{missing}", "{missing}"], {}, "INPUT_ERROR"),
        (["semantics", "{missing}", "--sigma", "grounded"], {},
         "INPUT_ERROR"),
        (["completions", "fixture:nope"], {}, "INPUT_ERROR"),
        (["completions", "fixture:example1"], {"UARG_MAX_UNCERTAIN": "abc"},
         "INVALID_LIMIT"),
        (["--max-uncertain", "-1", "completions", "fixture:example1"], {},
         "INVALID_LIMIT"),
        (["--config", "{cfg}", "completions", "fixture:example1"], {},
         "PARSE_ERROR"),
        (["completions", "fixture:example1", "--kind", "af"], {},
         "INPUT_ERROR"),
        (["completions", "{cfg}"], {}, "INPUT_ERROR"),
        (["semantics", "fixture:example1", "--sigma", "grounded"], {},
         "INPUT_ERROR"),
        (["synth-deps", "fixture:example4", "{missing}"], {}, "INPUT_ERROR"),
        (["equiv", "{bad}", "{bad}"], {}, "PARSE_ERROR"),
        (["completions", "{headless}", "--kind", "saf"], {},
         "INVALID_THEORY"),
        (["completions", "{null_rules}", "--kind", "rul-isaf"], {},
         "INVALID_THEORY"),
        (["--config", "{dir}", "fixtures", "list"], {}, "INPUT_ERROR"),
        (["--config", "{latin1}", "fixtures", "list"], {}, "INPUT_ERROR"),
        (["equiv", "{unparsable_dir}", "{unparsable_dir}"], {},
         "PARSE_ERROR"),
        (["equiv", "{undeclared_dir}", "{undeclared_dir}"], {},
         "UNDECLARED_ARGUMENT"),
        (["equiv", "{empty}", "{one}"], {}, "INPUT_ERROR"),
        (["synth-deps", "fixture:example1", "{empty}"], {}, "INPUT_ERROR"),
        (["export-dot", "fixture:thm3_rul"], {}, "INPUT_ERROR"),
        (["completions", "fixture:remark_weak_equiv"], {}, "INPUT_ERROR"),
        (["completions", "fixture:example1", "--out", "{missing}/x.txt"], {},
         "INPUT_ERROR"),
        (["translate", "fixture:example1", "--from", "arg-iaf", "--to",
          "rul-isaf", "--out-framework", "{missing}/x.json"], {},
         "INPUT_ERROR"),
        (["fixtures", "emit", "example1", "--out", "{missing}/x.iaf"], {},
         "INPUT_ERROR"),
        (["--config", "{search_cfg}", "fixtures", "list"], {}, "PARSE_ERROR"),
        (["completions", "{rule_twice}", "--kind", "rul-isaf"], {},
         "INVALID_THEORY"),
        (["completions", "{kb_twice}", "--kind", "prem-isaf"], {},
         "INVALID_THEORY"),
    ], ids=["equiv-missing", "semantics-missing", "unknown-fixture",
            "env-not-int", "negative-limit", "config-threads",
            "fixture-wrong-kind", "file-without-kind", "semantics-not-af",
            "synth-deps-not-arg-iaf", "equiv-unprintable-identifier",
            "theory-rule-without-head", "theory-null-rules",
            "config-directory", "config-not-utf8", "equiv-dir-unparsable",
            "equiv-dir-undeclared-argument", "equiv-dir-empty",
            "synth-deps-dir-empty", "export-dot-structured",
            "completions-pair-fixture", "completions-out-unwritable",
            "translate-out-unwritable", "fixtures-emit-out-unwritable",
            "config-max-search-args", "theory-rule-twice",
            "theory-kb-fixed-and-uncertain"])
    def test_exit_two_with_code_line(self, tmp_path, argv, env, code):
        cfg = tmp_path / "uarg.cfg"
        cfg.write_text("threads = 2\n", encoding="utf-8")
        search_cfg = tmp_path / "search.cfg"
        search_cfg.write_text("max_search_args = 6\n", encoding="utf-8")
        bad = tmp_path / "bad.afs"
        bad.write_text("arg(a\x01).\n---\n", encoding="utf-8")
        headless = tmp_path / "headless.json"
        headless.write_text('{"rules": [{"body": []}]}', encoding="utf-8")
        null_rules = tmp_path / "null_rules.json"
        null_rules.write_text('{"rules": null}', encoding="utf-8")
        rule_twice = tmp_path / "rule_twice.json"
        rule_twice.write_text(json.dumps({"close_negation": True, "rules": [
            {"head": "q", "name": "m"},
            {"head": "q", "name": "n", "status": "uncertain"}]}),
            encoding="utf-8")
        kb_twice = tmp_path / "kb_twice.json"
        kb_twice.write_text(json.dumps({"close_negation": True, "kb": {
            "axioms_fixed": ["p"], "axioms_uncertain": ["p"]}}),
            encoding="utf-8")
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes("# d\xe9faut\nmax_depth = 3\n".encode("latin-1"))
        dirs = {}
        for name, text in (("unparsable_dir", "arg(a).\nbogus\n"),
                           ("undeclared_dir", "arg(a).\natt(a,b).\n")):
            dirs[name] = tmp_path / name
            dirs[name].mkdir()
            (dirs[name] / "ok.apx").write_text("arg(a).\n", encoding="utf-8")
            (dirs[name] / "x.apx").write_text(text, encoding="utf-8")
        one = tmp_path / "one.afs"
        one.write_text("arg(a).\n---\n", encoding="utf-8")
        empty = tmp_path / "empty"  # no .apx file: bad input
        empty.mkdir()
        (empty / "a.txt").write_text("arg(a).\n", encoding="utf-8")
        formatted = [a.format(missing=tmp_path / "missing", cfg=cfg, bad=bad,
                              headless=headless, null_rules=null_rules,
                              rule_twice=rule_twice, kb_twice=kb_twice,
                              dir=tmp_path, latin1=latin1, one=one,
                              empty=empty, search_cfg=search_cfg, **dirs)
                     for a in argv]
        line = self.assert_one_line(formatted, env, 2, code)
        if "{rule_twice}" in argv:
            assert line == "INVALID_THEORY: rule []=d>q is listed twice"
        if "{kb_twice}" in argv:
            assert line == "INVALID_THEORY: formula 'p' is listed as both " \
                "fixed and uncertain"
        if "{empty}" in argv:  # names the empty input
            assert str(empty) in line
        if any(a.endswith("_dir}") for a in argv):  # names the bad file
            assert "x.apx" in line and "ok.apx" not in line

    @pytest.mark.parametrize("argv, option", [
        (["--max-search-args", "6", "fixtures", "list"], "--max-search-args"),
        (["synth-deps", "fixture:example2", "t.afs", "--minimize"],
         "--minimize"),
    ], ids=["max-search-args", "synth-deps-minimize"])
    def test_removed_option_is_a_usage_error(self, argv, option):
        result = run(*argv)
        assert result.exit_code == 2
        assert f"No such option '{option}'" in result.output

    def test_exit_three_on_search_bound(self, tmp_path):
        doc = tmp_path / "two.afs"
        doc.write_text("arg(a).\narg(b).\n---\n", encoding="utf-8")
        line = self.assert_one_line(
            ["--max-equiv-args", "1", "equiv", str(doc), str(doc)], {}, 3,
            "SEARCH_BOUND_EXCEEDED")
        assert "union of 2" in line and "--max-equiv-args" in line \
            and "UARG_MAX_EQUIV_ARGS" in line

    def test_identity_only_ignores_search_bound(self, tmp_path):
        doc = tmp_path / "t.txt"
        doc.write_text("arg(a).\narg(b).\narg(c).\natt(b,a).\n---\n"
                       "arg(a).\narg(c).\n---\n", encoding="utf-8")
        src = str(Path(uarg.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "uarg.cli", "--max-equiv-args", "1",
             "equiv", "--identity-only", str(doc), str(doc)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert '"verdict": "equivalent"' in result.stdout

    @staticmethod
    def assert_one_line(argv, env, exit_code, code):
        src = str(Path(uarg.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "uarg.cli", *argv],
            env={**os.environ, "PYTHONPATH": src, **env},
            capture_output=True, text=True, timeout=60)
        assert result.returncode == exit_code, result.stderr
        assert "Traceback" not in result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"{code}: "), lines
        return lines[0]
