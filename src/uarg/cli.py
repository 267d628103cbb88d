"""Command-line surface.

Exit codes: 0 success (or verdict: equivalent), 1 negative verdict,
2 usage/parse/validation error, 3 resource bound exceeded.

Inputs are file paths, or ``fixture:<name>`` to pull a registered instance.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import documents, equivalence, fixtures, translate
from .aspic import SAF
from .config import Limits, load_limits, read_text
from .core import SEMANTICS, AbstractAF, extensions, parse_af, serialize_af
from .errors import (
    RESOURCE_ERRORS,
    InputError,
    ParseError,
    UargError,
    UndeclaredArgumentError,
    UnsupportedDirectionError,
)
from .incomplete import (
    ArgIAF,
    CompletionSet,
    DepArgIAF,
    serialize_iaf,
    synthesize_dependencies,
)
from .isaf import PremISAF, RulISAF, completion_set_of


def _limits(ctx: click.Context) -> Limits:
    return ctx.obj["limits"]


def _fail(error: UargError) -> None:
    click.echo(str(error), err=True)
    sys.exit(3 if isinstance(error, RESOURCE_ERRORS) else 2)


def _fixture(name: str) -> fixtures.Fixture:
    try:
        return fixtures.REGISTRY[name]
    except KeyError:
        raise InputError(f"unknown fixture {name!r}; see `uarg fixtures "
                         f"list`") from None


def _read_input(spec: str, kind: str | None):
    if spec.startswith("fixture:"):
        name = spec[len("fixture:"):]
        entry = _fixture(name)
        value = entry.build()
        if kind is not None and entry.kind != kind:
            raise InputError(f"fixture {name} has kind {entry.kind}, not {kind}")
        return value
    if kind is None:
        raise InputError("--kind is required for file inputs")
    return documents.load_framework(read_text(spec), kind)


def _fixture_kind(spec: str) -> str | None:
    if spec.startswith("fixture:"):
        return _fixture(spec[len("fixture:"):]).kind
    return None


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="Config file with key=value lines.")
@click.option("--max-uncertain", type=int, default=None)
@click.option("--max-arguments", type=int, default=None)
@click.option("--max-depth", type=int, default=None)
@click.option("--max-equiv-args", type=int, default=None)
@click.option("--max-search-args", type=int, default=None)
@click.pass_context
def main(ctx, config_path, **overrides):
    """Reason about argumentation frameworks under qualitative uncertainty:
    enumerate completions, translate between formalisms, and decide
    completion-set equivalence."""
    ctx.ensure_object(dict)
    try:
        ctx.obj["limits"] = load_limits(config_path, overrides)
    except UargError as error:
        _fail(error)


@main.command()
@click.argument("input_spec", metavar="INPUT")
@click.option("--kind", type=click.Choice(documents.FRAMEWORK_KINDS),
              default=None)
@click.option("--count", is_flag=True, help="Print only the cardinality.")
@click.option("--out", type=click.Path(), default=None)
@click.pass_context
def completions(ctx, input_spec, kind, count, out):
    """Enumerate the completion set of a framework."""
    try:
        kind = kind or _fixture_kind(input_spec)
        framework = _read_input(input_spec, kind)
        completion_set = completion_set_of(framework, _limits(ctx))
    except UargError as error:
        _fail(error)
    if count:
        click.echo(str(len(completion_set)))
        return
    text = documents.serialize_completion_set(completion_set)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


_DIRECTIONS = {
    ("arg-iaf", "rul-isaf"): translate.arg_iaf_to_rul_isaf,
    ("arg-iaf", "prem-isaf"): translate.arg_iaf_to_prem_isaf,
    ("rul-isaf", "imp-arg-iaf"): translate.rul_isaf_to_imp_arg_iaf,
    ("prem-isaf", "imp-arg-iaf"): translate.prem_isaf_to_imp_arg_iaf,
    ("prem-isaf", "tidy-prem-isaf"): translate.tidy,
    ("prem-isaf", "rul-isaf"): translate.prem_isaf_to_rul_isaf,
}


@main.command(name="translate")
@click.argument("input_spec", metavar="INPUT")
@click.option("--from", "from_kind", required=True,
              type=click.Choice(documents.FRAMEWORK_KINDS))
@click.option("--to", "to_kind", required=True,
              type=click.Choice(["rul-isaf", "prem-isaf", "imp-arg-iaf",
                                 "tidy-prem-isaf"]))
@click.option("--verify", is_flag=True,
              help="Check completion-set equivalence under the witness.")
@click.option("--full-delta", is_flag=True,
              help="Emit every covering dependency antecedent instead of "
                   "only subset-minimal ones.")
@click.option("--out-framework", type=click.Path(), default=None)
@click.option("--out-witness", type=click.Path(), default=None)
@click.pass_context
def translate_cmd(ctx, input_spec, from_kind, to_kind, verify, full_delta,
                  out_framework, out_witness):
    """Run one of the six constructive translations; emits the target
    framework document and the certifying witness."""
    limits = _limits(ctx)
    try:
        handler = _DIRECTIONS.get((from_kind, to_kind))
        if handler is None:
            raise UnsupportedDirectionError(
                f"no translation from {from_kind} to {to_kind}")
        source = _read_input(input_spec, from_kind)
        if handler in (translate.rul_isaf_to_imp_arg_iaf,
                       translate.prem_isaf_to_imp_arg_iaf):
            target, witness = handler(source, limits, full_delta=full_delta)
        elif handler in (translate.tidy, translate.prem_isaf_to_rul_isaf):
            target, witness = handler(source, limits)
        else:
            target, witness = handler(source)
        framework_text = documents.serialize_framework(target)
        witness_text = json.dumps(witness.to_json(), sort_keys=True) + "\n"
        if out_framework:
            Path(out_framework).write_text(framework_text, encoding="utf-8")
        if out_witness:
            Path(out_witness).write_text(witness_text, encoding="utf-8")
        if not out_framework:
            click.echo(framework_text, nl=False)
            click.echo("=== witness ===")
            click.echo(witness_text, nl=False)
        if verify:
            source_set = completion_set_of(source, limits)
            target_set = completion_set_of(target, limits)
            if not equivalence.check_witness(source_set, target_set, witness):
                click.echo("verification failed: completion sets are not "
                           "equivalent under the witness", err=True)
                sys.exit(1)
            click.echo("verified: completion sets equivalent under witness",
                       err=True)
    except UargError as error:
        _fail(error)


def _read_completion_set(path_spec: str, allow_empty: bool = False):
    """A completion set from a document, or from a directory of .apx files
    (one member each).  A directory without one is bad input, and so is a
    document without a member unless allow_empty: only a framework whose
    dependencies no subset satisfies has no completion."""
    path = Path(path_spec)
    if path.is_dir():
        afs = []
        for member in sorted(path.glob("*.apx")):
            text = read_text(member)
            try:
                afs.append(parse_af(text))
            except (ParseError, UndeclaredArgumentError) as error:
                # the line number alone does not say which file it is in
                error.message = f"{str(member)!r}: {error.message}"
                raise
        if not afs:
            raise InputError(f"{path_spec!r} holds no .apx file")
        return CompletionSet(afs)
    completions = documents.parse_completion_set(read_text(path))
    if not completions and not allow_empty:
        raise InputError(f"{path_spec!r} holds no framework; equivalence "
                         "compares non-empty completion sets")
    return completions


@main.command()
@click.argument("left", metavar="LEFT")
@click.argument("right", metavar="RIGHT")
@click.option("--identity-only", is_flag=True,
              help="Only test the identity mapping (same-universe inputs).")
@click.pass_context
def equiv(ctx, left, right, identity_only):
    """Decide completion-set equivalence of two completion-set documents
    (files of AF texts separated by --- lines, or directories of .apx
    files)."""
    try:
        left_set = _read_completion_set(left)
        right_set = _read_completion_set(right)
        result = equivalence.equivalent(left_set, right_set, _limits(ctx),
                                        identity_only=identity_only)
    except UargError as error:
        _fail(error)
    payload = {
        "verdict": result.verdict,
        "witness": result.witness.to_json() if result.witness else None,
        "search": {"nodes": result.nodes, "prunes": result.prunes},
    }
    click.echo(json.dumps(payload, sort_keys=True))
    sys.exit(0 if result.equivalent else 1)


@main.command()
@click.argument("input_spec", metavar="INPUT")
@click.option("--sigma", required=True, type=click.Choice(SEMANTICS))
@click.pass_context
def semantics(ctx, input_spec, sigma):
    """List the extensions of an abstract framework under a semantics."""
    try:
        kind = _fixture_kind(input_spec) or "af"
        framework = _read_input(input_spec, kind)
        if not isinstance(framework, AbstractAF):
            raise InputError("semantics expects an abstract framework")
        exts = extensions(framework, sigma, _limits(ctx))
    except UargError as error:
        _fail(error)
    click.echo(json.dumps({
        "semantics": sigma,
        "extensions": [sorted(ext) for ext in exts],
    }, sort_keys=True))


@main.command(name="synth-deps")
@click.argument("input_spec", metavar="INPUT")
@click.argument("target", metavar="TARGET")
@click.option("--minimize", is_flag=True,
              help="Greedily drop dependencies that do not change the "
                   "completion set.")
@click.pass_context
def synth_deps(ctx, input_spec, target, minimize):
    """Synthesize dependencies so the framework's completions become exactly
    the target set; prints the resulting dependency-extended document."""
    try:
        kind = _fixture_kind(input_spec) or "arg-iaf"
        framework = _read_input(input_spec, kind)
        if isinstance(framework, DepArgIAF):
            framework = framework.base
        if not isinstance(framework, ArgIAF):
            raise InputError("synth-deps expects an arg-iaf input")
        target_set = _read_completion_set(target, allow_empty=True)
        deps = synthesize_dependencies(framework, target_set,
                                       minimize=minimize, limits=_limits(ctx))
    except UargError as error:
        _fail(error)
    click.echo(serialize_iaf(DepArgIAF(framework, deps)), nl=False)


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _to_dot(framework) -> str:
    lines = ["digraph framework {"]
    if isinstance(framework, AbstractAF):
        fixed, uncertain = framework.args, ()
        edges = framework.defeats
    else:
        base = framework.base if isinstance(framework, DepArgIAF) else framework
        fixed, uncertain = base.fixed_args, base.uncertain_args
        edges = base.defeats
    for name in fixed:
        lines.append(f"  {_dot_quote(name)};")
    for name in uncertain:
        lines.append(f"  {_dot_quote(name)} [style=dashed];")
    for s, t in edges:
        lines.append(f"  {_dot_quote(s)} -> {_dot_quote(t)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@main.command(name="export-dot")
@click.argument("input_spec", metavar="INPUT")
@click.option("--kind", type=click.Choice(["af", "arg-iaf", "dep-arg-iaf"]),
              default=None)
@click.pass_context
def export_dot(ctx, input_spec, kind):
    """Emit a DOT graph; uncertain arguments are rendered dashed."""
    try:
        kind = kind or _fixture_kind(input_spec) or "af"
        framework = _read_input(input_spec, kind)
    except UargError as error:
        _fail(error)
    click.echo(_to_dot(framework), nl=False)


@main.group(name="fixtures")
def fixtures_group():
    """List or emit the registered instances."""


@fixtures_group.command(name="list")
def fixtures_list():
    for name in sorted(fixtures.REGISTRY):
        entry = fixtures.REGISTRY[name]
        click.echo(f"{name}\t{entry.kind}\t{entry.description}")


def _fixture_document(value) -> str:
    if isinstance(value, (AbstractAF, ArgIAF, DepArgIAF, SAF, RulISAF,
                          PremISAF)):
        return documents.serialize_framework(value)
    raise click.UsageError("fixture has no single-document form")


@fixtures_group.command(name="emit")
@click.argument("name")
@click.option("--out", type=click.Path(), default=None)
def fixtures_emit(name, out):
    try:
        entry = _fixture(name)
    except UargError as error:
        _fail(error)
    value = entry.build()
    if entry.kind == "completion-set-pair":
        left, right = value
        left_text = documents.serialize_completion_set(left)
        right_text = documents.serialize_completion_set(right)
        if out:
            Path(f"{out}.left").write_text(left_text, encoding="utf-8")
            Path(f"{out}.right").write_text(right_text, encoding="utf-8")
        else:
            click.echo("%% left")
            click.echo(left_text, nl=False)
            click.echo("%% right")
            click.echo(right_text, nl=False)
        return
    text = _fixture_document(value)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
