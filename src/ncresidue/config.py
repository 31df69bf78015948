"""Session configuration: structured-text loading and validation.

Configs are YAML mappings.  Every geometric parameter defaults to symbolic;
numeric values must be exact integers or rational strings like "3/4".
"""

from __future__ import annotations

import os
import re
from fractions import Fraction

from .boundary import CASE_IDS
from .clifford import check_lemma_budget
from .errors import NonIncreasingTriple, ParseError, ValidationError
from .geometry import GeometricBundle, check_nbar

CASE_ALIASES = {"a1": "aI", "a2": "aII", "a3": "aIII", **{c: c for c in CASE_IDS}}
MODES = ("oracle", "printed")
FORMATS = ("text", "json", "csv")

_SCALAR_FIELDS = ("s", "divX", "divY", "dimF", "trPhi", "trPhi2", "hprime0")
# each YAML key and the SessionConfig argument it sets
_KEYS = {
    "dim": "nbar",
    "case": "cases",
    "format": "fmt",
    **{k: k for k in ("nbar", "mode", "cases", "seed", "verify_lemmas", "X", "Y",
                      "torsion", *_SCALAR_FIELDS)},
}
# Fraction reads "1e10000000" as an integer of ten million digits
_EXPONENT = re.compile(r"\s*[-+]?[\d_.]+[eE]")


def _is_int(value):
    """An integer that is not a bool (YAML reads true/false as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _rational(field, value):
    """Exact value from an int or a 'p/q' string; None stays symbolic."""
    if value is None or value == "symbolic":
        return None
    if isinstance(value, bool):
        raise ValidationError(field, f"boolean {value!r} is not a rational")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if _EXPONENT.match(value):
            raise ValidationError(
                field, f"exponent notation {value!r} rejected; use an integer or 'p/q'"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(field, f"not a rational: {value!r} ({exc})")
    if isinstance(value, float):
        raise ValidationError(
            field, f"float {value!r} rejected; use an exact rational string"
        )
    raise ValidationError(field, f"unsupported value {value!r}")


class SessionConfig:
    """Validated inputs for one reporting session."""

    __slots__ = (
        "nbar",
        "mode",
        "cases",
        "fmt",
        "seed",
        "verify_lemmas",
        "scalars",
        "X",
        "Y",
        "torsion",
    )

    def __init__(
        self,
        nbar,
        mode="oracle",
        cases=None,
        fmt="text",
        seed=0,
        verify_lemmas=0,
        scalars=None,
        X=None,
        Y=None,
        torsion=None,
    ):
        check_nbar(nbar)
        self.nbar = nbar
        if mode not in MODES:
            raise ValidationError("mode", f"expected one of {MODES}, got {mode!r}")
        self.mode = mode
        if cases is None:
            cases = CASE_IDS
        else:
            if not isinstance(cases, (list, tuple)):
                raise ValidationError(
                    "cases", f"expected a list of cases, got {cases!r}"
                )
            resolved = []
            for c in cases:
                if c == "all":
                    resolved.extend(CASE_IDS)
                    continue
                if not isinstance(c, str) or c not in CASE_ALIASES:
                    raise ValidationError("cases", f"unknown case {c!r}")
                resolved.append(CASE_ALIASES[c])
            cases = tuple(dict.fromkeys(resolved))
        self.cases = tuple(cases)
        if fmt not in FORMATS:
            raise ValidationError("format", f"expected one of {FORMATS}, got {fmt!r}")
        self.fmt = fmt
        if not _is_int(seed) or seed < 0:
            raise ValidationError("seed", f"nonnegative integer required, got {seed!r}")
        self.seed = seed
        if not _is_int(verify_lemmas) or verify_lemmas < 0:
            raise ValidationError(
                "verify_lemmas", f"nonnegative integer required, got {verify_lemmas!r}"
            )
        check_lemma_budget(nbar + 2, verify_lemmas, "verify_lemmas")
        self.verify_lemmas = verify_lemmas

        scalars = {} if scalars is None else scalars
        if not isinstance(scalars, dict):
            raise ValidationError("scalars", f"expected a mapping, got {scalars!r}")
        for key in scalars:
            if key not in _SCALAR_FIELDS:
                raise ValidationError(
                    "scalars", f"unknown scalar {key!r}; expected one of {_SCALAR_FIELDS}"
                )
        self.scalars = {f: _rational(f, scalars.get(f)) for f in _SCALAR_FIELDS}

        n = nbar + 2
        self.X = self._vector("X", X, n)
        self.Y = self._vector("Y", Y, n)
        self.torsion = self._torsion(torsion, n)

    @staticmethod
    def _vector(field, values, n):
        if values is None:
            return None
        if not isinstance(values, (list, tuple)):
            raise ValidationError(field, f"expected a list of {n} components")
        if len(values) != n:
            raise ValidationError(field, f"expected {n} components, got {len(values)}")
        out = []
        for k, v in enumerate(values):
            r = _rational(f"{field}[{k}]", v)
            if r is None:
                raise ValidationError(field, "vector components must be numeric")
            out.append(r)
        return out

    @staticmethod
    def _torsion(entries, n):
        if entries is None:
            return None
        if not isinstance(entries, (list, tuple)):
            raise ValidationError(
                "torsion", f"expected a list of [a, b, c, value], got {entries!r}"
            )
        out = {}
        for entry in entries:
            if not isinstance(entry, (list, tuple)) or len(entry) != 4:
                raise ValidationError(
                    "torsion", f"entry {entry!r} is not [a, b, c, value]"
                )
            a, b, c, v = entry
            if not all(_is_int(i) for i in (a, b, c)):
                raise ValidationError("torsion", f"indices in {entry!r} must be integers")
            if not (1 <= a < b < c <= n):
                raise NonIncreasingTriple(
                    f"triple ({a},{b},{c}) is not strictly increasing in 1..{n}"
                )
            if (a, b, c) in out:
                raise ValidationError("torsion", f"duplicate triple ({a},{b},{c})")
            r = _rational(f"torsion[{a},{b},{c}]", v)
            if r is None:
                raise ValidationError("torsion", "component values must be numeric")
            out[(a, b, c)] = r
        return out

    def bundle(self):
        """GeometricBundle carrying this config's exact point data."""
        return GeometricBundle(
            self.nbar + 2, torsion=self.torsion, X=self.X, Y=self.Y, **self.scalars
        )

    def as_dict(self):
        """Canonical plain-data rendering (for hashing and metadata).

        Every field is rendered in a form the constructor reads back, under
        its own name except that fmt is "format".
        """
        def render(v):
            if v is None:
                return "symbolic"
            return str(v)

        return {
            "nbar": self.nbar,
            "mode": self.mode,
            "cases": list(self.cases),
            "format": self.fmt,
            "seed": self.seed,
            "verify_lemmas": self.verify_lemmas,
            "scalars": {k: render(v) for k, v in sorted(self.scalars.items())},
            "X": None if self.X is None else [str(v) for v in self.X],
            "Y": None if self.Y is None else [str(v) for v in self.Y],
            "torsion": None
            if self.torsion is None
            else [[a, b, c, str(v)] for (a, b, c), v in sorted(self.torsion.items())],
        }


def load_config(source):
    """SessionConfig from a YAML path or inline YAML text."""
    import yaml  # only here: a session from flags alone never parses YAML

    text = source
    if isinstance(source, str) and os.path.exists(source):
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
        raise ParseError("config must be a mapping of keys to values")

    args, scalars = {}, {}
    for key, value in data.items():
        arg = _KEYS.get(key)
        if arg is None:
            raise ValidationError(str(key), "unknown config key")
        if arg in _SCALAR_FIELDS:
            scalars[arg] = value
        elif arg in args:
            other = next(k for k in data if k != key and _KEYS.get(k) == arg)
            raise ValidationError(arg, f"set both {other!r} and {key!r}; give one")
        else:
            args[arg] = value
    if args.get("nbar") is None:
        raise ValidationError("nbar", "missing boundary dimension")
    if isinstance(args.get("cases"), str):
        args["cases"] = [args["cases"]]
    return SessionConfig(scalars=scalars, **args)
