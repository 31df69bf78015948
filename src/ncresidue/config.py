"""Session configuration: structured-text loading and validation.

Configs are YAML mappings, read by the module yamlconfig, which loads only
when a config source is given.  Every geometric parameter defaults to
symbolic; the session's GeometricBundle reads and checks the numeric values.
"""

from __future__ import annotations

from .boundary import CASE_IDS
from .clifford import check_lemma_budget
from .errors import NonIncreasingTriple, ValidationError, check_int, is_int
from .geometry import SCALAR_NAMES, GeometricBundle, check_nbar

CASE_ALIASES = {"a1": "aI", "a2": "aII", "a3": "aIII", **{c: c for c in CASE_IDS}}
MODES = ("oracle", "printed")
FORMATS = ("text", "json", "csv")


class SessionConfig:
    """Validated inputs for one reporting session."""

    __slots__ = ("nbar", "mode", "cases", "fmt", "seed", "verify_lemmas", "_bundle")

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
        check_int("seed", seed, nonnegative=True)
        self.seed = seed
        check_int("verify_lemmas", verify_lemmas, nonnegative=True)
        check_lemma_budget(nbar + 2, verify_lemmas, "verify_lemmas")
        self.verify_lemmas = verify_lemmas

        scalars = {} if scalars is None else scalars
        if not isinstance(scalars, dict):
            raise ValidationError("scalars", f"expected a mapping, got {scalars!r}")
        # the bundle checks each name; keywords must be strings
        scalars = {str(k): None if v == "symbolic" else v for k, v in scalars.items()}
        self._bundle = GeometricBundle(
            nbar + 2, torsion=self._torsion(torsion), X=X, Y=Y, **scalars
        )

    @staticmethod
    def _torsion(entries):
        """The [a, b, c, value] entries as {(a, b, c): value}."""
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
            if not all(is_int(i) for i in (a, b, c)):
                raise ValidationError("torsion", f"indices in {entry!r} must be integers")
            if not a < b < c:
                raise NonIncreasingTriple(f"triple ({a},{b},{c}) is not strictly increasing")
            if (a, b, c) in out:
                raise ValidationError("torsion", f"duplicate triple ({a},{b},{c})")
            out[(a, b, c)] = v
        return out

    def bundle(self):
        """The GeometricBundle carrying this config's exact point data."""
        return self._bundle

    def as_dict(self):
        """Canonical plain-data rendering (for hashing and metadata).

        Values render as the bundle read them, each once; a vector or a
        torsion table that was left out, so that its names are unset,
        renders as None.
        """
        geo = self._bundle
        values = geo.assignment()

        def vector(name):
            if f"{name}_1" not in values:
                return None
            return [str(values[f"{name}_{j}"]) for j in range(1, geo.n + 1)]

        return {
            "nbar": self.nbar,
            "mode": self.mode,
            "cases": list(self.cases),
            "format": self.fmt,
            "seed": self.seed,
            "verify_lemmas": self.verify_lemmas,
            "scalars": {
                k: str(values.get(SCALAR_NAMES[k], "symbolic")) for k in sorted(SCALAR_NAMES)
            },
            "X": vector("X"),
            "Y": vector("Y"),
            "torsion": None
            if "T_1_2_3" not in values
            else [[a, b, c, str(values[f"T_{a}_{b}_{c}"])] for a, b, c in sorted(geo.torsion)],
        }


def load_config(source):
    """SessionConfig from a YAML path, YAML text or an open file (yamlconfig)."""
    from .yamlconfig import read_config  # only a config source loads the reader

    return SessionConfig(**read_config(source))
