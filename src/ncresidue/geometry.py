"""Interior contribution: Laplace-type normal form, connection and
endomorphism reconstruction, trace density, and the interior residue.

All computations happen at a base point in normal coordinates, over a fixed
parameter alphabet: scalar curvature s, drift components X_j and their
first jets, auxiliary vector Y_j, strictly-increasing torsion components
T_a_b_c with jets, the collar jet hp0, and formal trace values dimF, trPhi,
trPhi2 of the twist endomorphism.  Curvature of the auxiliary bundle and
derivatives of the twist endomorphism ride along as twist labels (RF_i_j,
dPhi_j) and never contribute to densities.  The zero-order block B and E - B
are each one scalar plus factor pairs (x, y), the products x * y summed by
one CliffordElement._products_sum.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import factorial
from types import MappingProxyType

from .clifford import (
    CliffordElement,
    _triple_sign,
    _triples,
    blade_mul,
    torsion_element,
    twisted_trace,
)
from .errors import (
    NonAntisymmetricTorsion,
    OddBarDimension,
    OddDimension,
    UnsupportedDimension,
    ValidationError,
    check_int,
)
from .exact import Alphabet, GaussRational, ParamPoly, read_only


# Fraction reads "1e10000000" as an integer of ten million digits
_EXPONENT = re.compile(r"\s*[-+]?[\d_.]+[eE]")


def _rational(field, value):
    """Exact value of an int, a Fraction or a 'p/q' string.

    The one reader of outside point data: anything else, bools, floats and
    exponent notation among them, and a value whose numerator or
    denominator str() cannot render, raises ValidationError naming field.
    """
    if isinstance(value, bool):
        raise ValidationError(field, f"boolean {value!r} is not a rational")
    if isinstance(value, str):
        if _EXPONENT.match(value):
            raise ValidationError(
                field, f"exponent notation {value!r} rejected; use an integer or 'p/q'"
            )
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(field, f"not a rational: {value!r} ({exc})")
    elif isinstance(value, float):
        raise ValidationError(
            field, f"float {value!r} rejected; use an exact rational string"
        )
    elif not isinstance(value, (int, Fraction)):
        # the type only: repr fails on an int past Python's int-string digit limit
        raise ValidationError(
            field, f"expected an int, a Fraction or a 'p/q' string, got {type(value).__name__}"
        )
    try:
        str(value)  # every report and as_dict() renders the value
    except ValueError:
        raise ValidationError(
            field, "too many digits: past Python's int-string conversion limit"
        ) from None
    return Fraction(value)


# each scalar keyword of GeometricBundle and its name in the alphabet
SCALAR_NAMES = {"s": "s", "divX": "divX", "divY": "divY", "dimF": "dimF",
                "trPhi": "trPhi", "trPhi2": "trPhi2", "hprime0": "hp0"}


def check_nbar(nbar):
    """Reject a boundary dimension that is not an even int in 2..10."""
    if nbar is None:
        raise ValidationError("nbar", "missing boundary dimension")
    check_int("nbar", nbar)
    if nbar % 2:
        raise OddBarDimension(f"even boundary dimension required, got {nbar}")
    if not 2 <= nbar <= 10:
        raise UnsupportedDimension(f"boundary dimension {nbar} outside 2..10")


def standard_alphabet(n):
    """The full parameter alphabet for an even n in 2..12, one instance per
    n.  Any other n is refused before anything is built: the alphabet grows
    as n^4, and 12 is the largest dimension a report uses."""
    check_int("n", n)
    if n % 2 or n < 2:
        raise OddDimension(f"even dimension >= 2 required, got {n}")
    if n > 12:
        raise UnsupportedDimension(f"dimension {n} outside 2..12")
    return _alphabet(n)


@lru_cache(maxsize=None)
def _alphabet(n):
    names = ["hp0", "s", "divX", "divY", "dimF", "trPhi", "trPhi2", "VolS"]
    names += [f"X_{j}" for j in range(1, n + 1)]
    names += [f"Y_{j}" for j in range(1, n + 1)]
    names += [f"T_{a}_{b}_{c}" for (a, b, c) in _triples(n)]
    names += [
        f"dX_{j}_{l}" for j in range(1, n + 1) for l in range(1, n + 1) if j != l
    ]
    names += [
        f"dY_{j}_{l}" for j in range(1, n + 1) for l in range(1, n + 1) if j != l
    ]
    names += [f"dT_{j}_{a}_{b}_{c}" for j in range(1, n + 1) for (a, b, c) in _triples(n)]
    return Alphabet(names)


def standard_label_trace(alphabet):
    """Trace rule on twist labels: empty -> dimF, one/two endomorphism powers."""
    table = {
        (): ParamPoly.var(alphabet, "dimF"),
        ("phi",): ParamPoly.var(alphabet, "trPhi"),
        ("phi", "phi"): ParamPoly.var(alphabet, "trPhi2"),
    }

    def rule(label):
        got = table.get(label)
        if got is None:
            raise ValidationError("label", f"no trace rule for twist label {label!r}")
        return got

    return rule


class GeometricBundle:
    """Point data for the engine: dimension plus exact scalar values.

    The scalars are keywords: s, divX, divY, dimF, trPhi, trPhi2 and
    hprime0; any other name raises ValidationError for field "scalars".
    Any field left as None stays symbolic; every value given is read by
    _rational(), so it is an int, a Fraction or a 'p/q' string.
    """

    def __init__(self, n, torsion=None, X=None, Y=None, **scalars):
        self.n = n
        self.alphabet = standard_alphabet(n)
        # accept redundant full-tensor input: permuted triples fold onto the
        # increasing representative with the permutation sign, and must be
        # mutually consistent with full antisymmetry
        if torsion is not None and not isinstance(torsion, dict):
            raise ValidationError("torsion", f"expected a mapping, got {type(torsion).__name__}")
        self.torsion = {}
        for key, value in (torsion or {}).items():
            if not (isinstance(key, tuple) and len(key) == 3
                    and all(type(i) is int for i in key)):
                raise ValidationError("torsion", f"key {key!r} is not a triple of ints")
            a, b, c = key
            if not all(1 <= i <= n for i in key):
                raise ValidationError(
                    "torsion", f"triple {key} has indices outside 1..{n}"
                )
            value = _rational(f"torsion[{a},{b},{c}]", value)
            if len({a, b, c}) < 3:
                if value != 0:
                    raise NonAntisymmetricTorsion(
                        f"triple {key} repeats an index but has a nonzero value"
                    )
                continue
            rep = tuple(sorted(key))
            folded = _triple_sign(a, b, c) * value
            if rep in self.torsion and self.torsion[rep] != folded:
                raise NonAntisymmetricTorsion(
                    f"triple {key} breaks antisymmetry against {rep}"
                )
            self.torsion[rep] = folded
        # read-only: a SessionConfig hands out one bundle and renders from it
        self.torsion = MappingProxyType(self.torsion)
        for key in scalars:
            if key not in SCALAR_NAMES:
                raise ValidationError(
                    "scalars", f"unknown scalar {key!r}; expected one of {tuple(SCALAR_NAMES)}"
                )
        values = {SCALAR_NAMES[f]: _rational(f, v) for f, v in scalars.items() if v is not None}
        for name, vec in (("X", X), ("Y", Y)):
            if vec is not None:
                if not isinstance(vec, (list, tuple)) or len(vec) != n:
                    raise ValidationError(name, f"expected a list of {n} components")
                values.update((f"{name}_{k + 1}", _rational(f"{name}[{k}]", v))
                              for k, v in enumerate(vec))
        if torsion is not None:
            # triples not mentioned are zero once torsion data is explicit
            values.update(
                (f"T_{a}_{b}_{c}", self.torsion.get((a, b, c), 0))
                for a, b, c in _triples(n)
            )
        # alphabet name -> exact value, built once; unset names stay symbolic
        self._assignment = {k: GaussRational.from_value(v) for k, v in values.items()}

    def assignment(self):
        """The point data as alphabet name -> GaussRational, a fresh dict."""
        return dict(self._assignment)

    def subs(self, poly):
        return poly.subs(self._assignment)


# First-order and zero-order blocks of the operator at the base point of the
# bundle geo, with the jets of W that B was built from.
LaplaceNormalForm = namedtuple("LaplaceNormalForm", "dim alphabet Ai B jets geo")
_SYMBOLIC = MappingProxyType({})  # the point data of a symbolic bundle


def _var(alphabet, name, point=_SYMBOLIC):
    """The leaf name: its value in point (name -> value), else the symbol."""
    value = point.get(name)
    return ParamPoly.var(alphabet, name) if value is None else ParamPoly.const(alphabet, value)


def twist_vector(dim, alphabet, label=("phi",), point=_SYMBOLIC):
    """W = (c(T) + c(Y)) carrying one twist endomorphism factor (the label),
    with point's values at its leaves."""
    triples = {t: _var(alphabet, "T_{}_{}_{}".format(*t), point) for t in _triples(dim)}
    y = [_var(alphabet, f"Y_{j}", point) for j in range(1, dim + 1)]
    return torsion_element(dim, alphabet, triples, label) + CliffordElement.from_vector(
        dim, alphabet, y, label
    )


def twist_vector_jet(dim, alphabet, j, point):
    """Derivative of W in the j-th coordinate at the base point."""
    phi = ("phi",)
    dt = {t: _var(alphabet, "dT_{}_{}_{}_{}".format(j, *t), point) for t in _triples(dim)}
    dy = [_first_jet(alphabet, dim, j, l, point) for l in range(1, dim + 1)]
    out = torsion_element(dim, alphabet, dt, phi) + CliffordElement.from_vector(
        dim, alphabet, dy, phi
    )
    # the endomorphism's own derivative rides along as an opaque label
    return out + twist_vector(dim, alphabet, (f"dPhi_{j}",), point)


def k_vectors(w):
    """K_j = c_j W + W c_j for j = 1..dim, blade by blade: c_j B =
    (-1)^|B - {j}| B c_j, so the two products cancel or add up to 2 c_j B."""
    k_list = []
    for j in range(w.dim):
        g = 1 << j
        terms = {}
        for (mask, label), c in w.terms.items():
            if not (mask & ~g).bit_count() % 2:
                key, sign = blade_mul(g, mask)
                terms[(key, label)] = c * (2 * sign)
        k_list.append(CliffordElement(w.dim, w.alphabet, terms))
    return k_list


def _first_jet(alphabet, dim, j, l, point):
    """First jet of Y: dY_{j}_{l} off-diagonal, divY/n on-diagonal."""
    if j == l:
        return _var(alphabet, "divY", point) * Fraction(1, dim)
    return _var(alphabet, f"dY_{j}_{l}", point)


def _normal_form_parts(geo):
    """A^i, and B but its jet summands as a scalar plus the products x * y
    of factor pairs, at the base point, with geo's point data at the leaves."""
    n, alphabet, point = geo.n, geo.alphabet, geo._assignment
    var = partial(_var, alphabet, point=point)
    w = twist_vector(n, alphabet, point=point)
    gens = [CliffordElement.generator(n, alphabet, j) for j in range(1, n + 1)]
    half = Fraction(1, 2)
    Ai = [
        -(CliffordElement.scalar(n, alphabet, var(f"X_{j}") * half) + k_j)
        for j, k_j in enumerate(k_vectors(w), 1)
    ]

    quarter = Fraction(1, 4)
    # -s/4 + |X|^2/16 + the drift's first jet: minus the drift moment term,
    # +1/4 sum_{j<l} (dX_jl - dX_lj) c_j c_l, and -1/4 sum_{j,l} d_jX_l c_j c_l
    # sum to +1/4 divX, their off-diagonal parts cancelling (tests keep both)
    normx2 = ParamPoly(alphabet, {((f"X_{j}", 2),): Fraction(1, 16) for j in range(1, n + 1)})
    scalar = geo.subs(normx2) - var("s") * quarter + var("divX") * quarter
    # auxiliary-bundle curvature, one opaque label per ordered pair i < j
    pairs = [(-gens[i - 1].with_label((f"RF_{i}_{j}",)), gens[j - 1])
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    # -1/4 (W c(X) + c(X) W) and -W^2
    cx = CliffordElement.from_vector(
        n, alphabet, [var(f"X_{j}") * -quarter for j in range(1, n + 1)]
    )
    pairs += [(w, cx), (cx, w), (-w, w)]
    return Ai, scalar, pairs


def _connection_parts(geo, Ai):
    """Connection coefficients, and E - B but its jet summands: the drift
    parts divX/(4n) of the jets d_j omega_j summed as divX/4, and the pairs
    of -omega_j^2."""
    omega = [a.scale(Fraction(1, 2)) for a in Ai]
    divx = _var(geo.alphabet, "divX", geo._assignment) * Fraction(1, 4)
    return omega, divx, [(-o, o) for o in omega]


def _check_geo(geo):
    """Refuse anything but a GeometricBundle as geo."""
    if not isinstance(geo, GeometricBundle):
        raise ValidationError("geo", f"expected a GeometricBundle, got {type(geo).__name__}")


def lichnerowicz_normal_form(geo):
    """A^i and B blocks of the operator at the base point, geo's point data
    at the leaves: the symbolic blocks with it substituted (unset names, the
    jets among them, stay symbolic).  B's jet summands are -c_j dW_j; those
    of E - B only oracle.connection_and_E adds (see _trace_E_symbolic)."""
    _check_geo(geo)
    n, alphabet = geo.n, geo.alphabet
    Ai, scalar, pairs = _normal_form_parts(geo)
    jets = [twist_vector_jet(n, alphabet, j, geo._assignment) for j in range(1, n + 1)]
    pairs += [(-CliffordElement.generator(n, alphabet, j), dw) for j, dw in enumerate(jets, 1)]
    b = CliffordElement.scalar(n, alphabet, scalar)
    return LaplaceNormalForm(n, alphabet, Ai, b + b._products_sum(pairs), jets, geo)


@lru_cache(maxsize=None)
def _trace_E_symbolic(n):
    """Tr(E) over the symbolic alphabet of dimension n: the grade-0 part of
    E is B's and E - B's scalars plus the grade-0 joins of their pairs.

    The jets of W enter E only through the jet summands, -c_j dW_j in B and
    1/2 (c_j dW_j + dW_j c_j) in E - B, whose traces sum to zero (tr(c_j A)
    = tr(A c_j)), so neither they nor the jets are built here.
    """
    geo = GeometricBundle(n)
    alphabet = geo.alphabet
    Ai, b_scalar, b_pairs = _normal_form_parts(geo)
    _, e_scalar, e_pairs = _connection_parts(geo, Ai)
    grade0 = CliffordElement.scalar(n, alphabet, b_scalar + e_scalar).plus(
        x.mul_grade0(y) for x, y in b_pairs + e_pairs
    )
    return read_only(twisted_trace(grade0, standard_label_trace(alphabet)))


@lru_cache(maxsize=None)
def _printed_density(n):
    """The printed closed-form density over the symbolic alphabet of
    dimension n: 2^n dimF (-s/4 + divX/2 + g(Y, X) trPhi + (2|T|^2 + |Y|^2/2)
    trPhi2).
    """
    alphabet = standard_alphabet(n)
    gyx = ParamPoly(alphabet, {((f"X_{j}", 1), (f"Y_{j}", 1)): 1 for j in range(1, n + 1)})
    squares = ParamPoly(alphabet, {  # 2|T|^2 + |Y|^2/2
        **{((f"T_{a}_{b}_{c}", 2),): 2 for a, b, c in _triples(n)},
        **{((f"Y_{j}", 2),): Fraction(1, 2) for j in range(1, n + 1)},
    })
    inner = (
        -(_var(alphabet, "s") * Fraction(1, 4))
        + _var(alphabet, "divX") * Fraction(1, 2)
        + gyx * _var(alphabet, "trPhi")
        + squares * _var(alphabet, "trPhi2")
    )
    return read_only(inner * _var(alphabet, "dimF") * (2 ** n))


def trace_E_density(geo, mode="oracle"):
    """Spinor-plus-twist trace of the endomorphism block.

    oracle mode traces the block exactly, trace-only: the grade-0 part of
    each summand of E is taken without forming its products.  printed mode
    returns the closed-form density with its 2^n prefactor.  Either density
    is built once per dimension over the symbolic alphabet (cached), and
    geo's point data is substituted afterwards.  The full assembly
    connection_and_E (in the module oracle) is the test oracle of the
    oracle mode.
    """
    _check_geo(geo)
    return geo.subs(_symbolic_density(mode)(geo.n))


def _symbolic_density(mode):
    """The cached symbolic density function of mode; another mode raises."""
    if mode not in ("oracle", "printed"):
        raise ValidationError("mode", f"unknown mode {mode!r}")
    return _trace_E_symbolic if mode == "oracle" else _printed_density


# representative monomials of the density, without the dimF factor that the
# printed form puts on every term and the oracle only on untwisted ones; a
# twisted monomial ends in trPhi or trPhi2
_DENSITY_PROBES = (
    ("scalar_curvature", (("s", 1),)),
    ("drift_divergence", (("divX", 1),)),
    ("drift_pairing", (("X_1", 1), ("Y_1", 1), ("trPhi", 1))),
    ("torsion_square", (("T_1_2_3", 2), ("trPhi2", 1))),
    ("vector_square", (("Y_1", 2), ("trPhi2", 1))),
)


def trace_density_report(n):
    """Per-term comparison of the printed and engine trace densities.

    Records carry the coefficient of each representative monomial in both
    forms, then the two trace conventions that set them apart; disagreements
    are reported, never patched.  A fresh list of read-only records that
    are built once per n and shared by every call.
    """
    GeometricBundle(n)  # refuses an unsupported n before anything is cached
    return list(_density_rows(n))


@lru_cache(maxsize=None)
def _density_rows(n):
    printed, oracle = _printed_density(n), _trace_E_symbolic(n)
    # normalize out each side's trace-of-identity convention so the per-term
    # densities are comparable
    p_unit = GaussRational(Fraction(1, 2 ** n))
    o_unit = GaussRational(Fraction(1, 2 ** (n // 2)))
    dimf = (("dimF", 1),)
    rows = []
    for name, mono in _DENSITY_PROBES:
        twist = mono[-1][0].startswith("trPhi")
        rows.append((name, str(printed.coefficient(mono + dimf) * p_unit),
                     str(oracle.coefficient(mono if twist else mono + dimf) * o_unit)))
    rows += [
        ("identity_trace_prefactor", f"{2 ** n}*dimF", f"{2 ** (n // 2)}*dimF"),
        ("twist_terms_dimF_factor", "dimF multiplies trPhi/trPhi2 terms",
         "twist traces carry no dimF factor"),
    ]
    return tuple(
        MappingProxyType({"term": term, "dim": n, "printed": p, "oracle": o, "agree": p == o})
        for term, p, o in rows
    )


def interior_wres(geo, mode="oracle"):
    """Interior residue density and its exact prefactor.

    The density is tr(E) plus the scalar-curvature term s dimF tr(id) / 6,
    where tr(id) is 2^n in printed mode and 2^(n/2) in oracle mode.
    Returns (density, (pi_power, prefactor)): the residue is
    prefactor * pi^pi_power * integral of density.
    """
    _check_geo(geo)
    _symbolic_density(mode)  # refuses an unknown mode before the cache sees it
    n = geo.n
    density = geo.subs(_interior_density(n, mode))
    return density, (Fraction(n, 2), Fraction(n - 2, factorial(n // 2 - 1)))


@lru_cache(maxsize=None)
def _interior_density(n, mode):
    """interior_wres's density over the symbolic alphabet of dimension n."""
    trid = 2 ** n if mode == "printed" else 2 ** (n // 2)
    curv = ParamPoly(standard_alphabet(n), {(("dimF", 1), ("s", 1)): Fraction(trid, 6)})
    return read_only(_symbolic_density(mode)(n) + curv)


def __getattr__(name):
    # the full assembly of E is a test oracle: it lives in .oracle (PEP 562)
    if name == "connection_and_E":
        from .oracle import connection_and_E

        return connection_and_E
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
