"""The YAML reader of session configs, loaded only when a config source is
given (config.load_config, --config): flags alone never import PyYAML."""

from __future__ import annotations

import os

import yaml

from .errors import ParseError, ValidationError
from .geometry import SCALAR_NAMES

# each YAML key and the SessionConfig argument it sets
_KEYS = {
    "dim": "nbar",
    "case": "cases",
    "format": "fmt",
    **{k: k for k in ("nbar", "mode", "cases", "seed", "verify_lemmas", "X", "Y",
                      "torsion", *SCALAR_NAMES)},
}


def read_config(source):
    """SessionConfig arguments from a YAML path (a str naming an existing
    file, or any os.PathLike), YAML text (str or bytes) or an open file."""
    is_path = isinstance(source, os.PathLike)
    if not (is_path or isinstance(source, (str, bytes)) or hasattr(source, "read")):
        raise ParseError(
            f"expected a config path, YAML text or a file, got {type(source).__name__}"
        )
    text = source
    if is_path or isinstance(source, str) and os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read config: {exc}")
    # PyYAML also raises ValueError for an integer past Python's int-string
    # digit limit, and RecursionError for deeply nested collections
    try:
        data = yaml.safe_load(text)
    except (yaml.YAMLError, ValueError, RecursionError) as exc:
        mark = getattr(exc, "problem_mark", None)
        if mark is not None:
            raise ParseError(
                f"invalid config: {getattr(exc, 'problem', exc)}",
                line=mark.line + 1,
                column=mark.column + 1,
            )
        raise ParseError(f"invalid config: {exc}")
    if data is None:
        data = {}
    if not isinstance(data, dict):
        if text is source and isinstance(text, str) and "\n" not in text.strip():
            raise ParseError(f"no such config file: {source!r}")
        raise ParseError("config must be a mapping of keys to values")

    args, scalars = {}, {}
    for key, value in data.items():
        arg = _KEYS.get(key)
        if arg is None:
            raise ValidationError(str(key), "unknown config key")
        if arg in SCALAR_NAMES:
            scalars[arg] = value
        elif arg in args:
            other = next(k for k in data if k != key and _KEYS.get(k) == arg)
            raise ValidationError(arg, f"set both {other!r} and {key!r}; give one")
        else:
            args[arg] = value
    if isinstance(args.get("cases"), str):
        args["cases"] = [args["cases"]]
    return {"nbar": None, **args, "scalars": scalars}
