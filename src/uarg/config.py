"""Resource bounds and their three override layers.

Precedence, lowest to highest: built-in defaults, config file (key=value
lines), UARG_* environment variables, explicit CLI flags.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .errors import InputError, InvalidLimitError, ParseError

ENV_PREFIX = "UARG_"


@dataclass(frozen=True)
class Limits:
    max_uncertain: int = 20      # uncertain elements per framework (2^n subsets)
    max_arguments: int = 10_000  # generated structured arguments
    max_depth: int = 50          # structured argument height
    max_equiv_args: int = 16     # union size for equivalence search

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 0:
                raise InvalidLimitError(f"{f.name} must be >= 0, got {value}")


DEFAULT_LIMITS = Limits()

_INT_KEYS = {f.name for f in fields(Limits)}


def read_text(path: str | os.PathLike) -> str:
    """A file's UTF-8 text; a file that cannot be read is an InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        reason = getattr(error, "strerror", None) or error
        raise InputError(f"cannot read {str(path)!r}: {reason}") from None


def write_text(path: str | os.PathLike, text: str) -> None:
    """Write ``text`` as UTF-8; a file that cannot be written is an
    InputError."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as error:
        reason = error.strerror or error
        raise InputError(f"cannot write {str(path)!r}: {reason}") from None


def parse_config_text(text: str) -> dict[str, int]:
    """Parse TOML-style key=value lines (comments with #, blank lines ok);
    as in TOML, a key may be set once."""
    values: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", lineno, 1)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _INT_KEYS:
            raise ParseError(f"unknown config key {key!r}", lineno, 1)
        if key in values:
            raise ParseError(f"config key {key!r} given twice", lineno, 1)
        try:
            values[key] = int(value.strip())
        except ValueError:
            raise ParseError(f"invalid integer for {key}: {value.strip()!r}",
                             lineno, 1) from None
    return values


def load_limits(config_path: str | None = None,
                overrides: dict[str, int] | None = None,
                env: dict[str, str] | None = None) -> Limits:
    limits = DEFAULT_LIMITS
    if config_path:
        limits = replace(limits,
                         **parse_config_text(read_text(config_path)))
    env = os.environ if env is None else env
    env_values = {}
    for key in sorted(_INT_KEYS):
        name = ENV_PREFIX + key.upper()
        if name in env:
            try:
                env_values[key] = int(env[name])
            except ValueError:
                raise InvalidLimitError(
                    f"invalid integer for {name}: {env[name]!r}") from None
    if env_values:
        limits = replace(limits, **env_values)
    if overrides:
        limits = replace(limits, **{k: v for k, v in overrides.items()
                                    if v is not None})
    return limits
