import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import uarg
from uarg.cli import main

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

    def test_determinism(self):
        first = run("completions", "fixture:example4")
        second = run("completions", "fixture:example4")
        assert first.output == second.output

    def test_parse_error_exit_code(self, tmp_path):
        path = tmp_path / "broken.iaf"
        path.write_text("arg(a\n", encoding="utf-8")
        result = run("completions", str(path), "--kind", "arg-iaf")
        assert result.exit_code == 2

    def test_bound_exit_code(self, tmp_path):
        path = tmp_path / "wide.iaf"
        path.write_text("".join(f"?arg(u{i}).\n" for i in range(8)),
                        encoding="utf-8")
        result = run("--max-uncertain", "4", "completions", str(path),
                     "--kind", "arg-iaf")
        assert result.exit_code == 3


class TestTranslateCommand:
    def test_verify_example1_to_rul(self):
        result = run("translate", "fixture:example1", "--from", "arg-iaf",
                     "--to", "rul-isaf", "--verify")
        assert result.exit_code == 0, result.output

    def test_verify_thm3_to_imp(self):
        result = run("translate", "fixture:thm3_rul", "--from", "rul-isaf",
                     "--to", "imp-arg-iaf", "--verify")
        assert result.exit_code == 0, result.output

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
        (["equiv", "{one}", "{blank}"], {}, "INPUT_ERROR"),
        (["synth-deps", "fixture:example1", "{empty}"], {}, "INPUT_ERROR"),
    ], ids=["equiv-missing", "semantics-missing", "unknown-fixture",
            "env-not-int", "negative-limit", "config-threads",
            "fixture-wrong-kind", "file-without-kind", "semantics-not-af",
            "synth-deps-not-arg-iaf", "equiv-unprintable-identifier",
            "theory-rule-without-head", "theory-null-rules",
            "config-directory", "config-not-utf8", "equiv-dir-unparsable",
            "equiv-dir-undeclared-argument", "equiv-dir-empty",
            "equiv-doc-empty", "synth-deps-dir-empty"])
    def test_exit_two_with_code_line(self, tmp_path, argv, env, code):
        cfg = tmp_path / "uarg.cfg"
        cfg.write_text("threads = 2\n", encoding="utf-8")
        bad = tmp_path / "bad.afs"
        bad.write_text("arg(a\x01).\n---\n", encoding="utf-8")
        headless = tmp_path / "headless.json"
        headless.write_text('{"rules": [{"body": []}]}', encoding="utf-8")
        null_rules = tmp_path / "null_rules.json"
        null_rules.write_text('{"rules": null}', encoding="utf-8")
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
        empty = tmp_path / "empty"  # no .apx file: an empty completion set
        empty.mkdir()
        (empty / "a.txt").write_text("arg(a).\n", encoding="utf-8")
        blank = tmp_path / "blank.afs"  # no section: likewise
        blank.write_text("\n", encoding="utf-8")
        formatted = [a.format(missing=tmp_path / "missing", cfg=cfg, bad=bad,
                              headless=headless, null_rules=null_rules,
                              dir=tmp_path, latin1=latin1, one=one,
                              empty=empty, blank=blank, **dirs)
                     for a in argv]
        line = self.assert_one_line(formatted, env, 2, code)
        for name, path in (("{empty}", empty), ("{blank}", blank)):
            if name in argv:  # names the empty input
                assert str(path) in line
        if any(a.endswith("_dir}") for a in argv):  # names the bad file
            assert "x.apx" in line and "ok.apx" not in line

    def test_exit_three_on_search_bound(self, tmp_path):
        doc = tmp_path / "two.afs"
        doc.write_text("arg(a).\narg(b).\n---\n", encoding="utf-8")
        line = self.assert_one_line(
            ["--max-equiv-args", "1", "equiv", str(doc), str(doc)], {}, 3,
            "SEARCH_BOUND_EXCEEDED")
        assert "union of 2" in line and "--max-equiv-args" in line \
            and "UARG_MAX_EQUIV_ARGS" in line

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
