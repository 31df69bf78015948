"""Boundary contribution: the five covariable-jet cases of the residue
expansion, the assembled boundary density, the extrinsic curvature of the
collar metric, and the paired interior + boundary total.

The five cases are stated once, in one table (_CASES): per case, the index
that takes the boundary-sum constraint's one unit of deficit, and the
case's printed row.  CASE_IDS, enumerate_cases and printed_case_value read
it; nothing searches the constraint.

All five cases go through one evaluator.  A case builds its factors from
the shared symbol pipeline: sphere restrictions, upper-half-plane
projections and normal-covariable derivatives.  The evaluator traces the
grade-0 join of each product, integrates the residue exactly and scales by
the case prefactor times VolS, logging every step; a case given in its
integration-by-parts form (one that also gives the form before it) takes
the opposite sign.  It then compares the result with the printed closed
forms.  Those are kept as rows transcribed from the paper -- bracket
numerators with their pole and derivative orders, and per-case factors --
and re-evaluated exactly via deriv_at_i.  Disagreements are reported as
comparison records, never patched.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from types import MappingProxyType

from .clifford import Blades
from .errors import ValidationError, check_int
from .exact import GR_I, GR_ONE, GaussRational, ParamPoly, read_only
from .geometry import (
    GeometricBundle,
    check_nbar,
    interior_wres,
    standard_alphabet,
    standard_label_trace,
)
from .halfplane import HalfPlaneRational, deriv_at_i
from .symbols import drift_subsymbol_parts, invert_symbol, laplace_symbol, power_symbol

# The five boundary cases, in report order.  With r <= -2 and l <= 2 - nbar,
# the constraint r + l - k - j - |alpha| - 1 = -(nbar + 2) leaves exactly one
# unit of deficit over (-2 - r, 2 - nbar - l, j, k, |alpha|); each row names
# the index that takes it.  Its printed row gives the printed case total,
# hp0 VolS factors(h) 2^(h + offset) bracket / (h + 2)!, plus the shared
# drift part where flagged, as (factors as a function of h, offset, bracket
# name, drift flag); case aI prints zero.
_CASES = {
    "aI": ("alpha", None),
    "aII": ("j", (lambda h: GaussRational(Fraction(-1, 4)) * (h - 1) * GR_I, 1, "L0", False)),
    "aIII": ("k", (lambda h: GaussRational(1 - h), 1, "L1", False)),
    "b": ("l", (lambda h: GR_ONE, -1, "L2", True)),
    "c": ("r", (lambda h: GaussRational(1 - h) * GaussRational(0, 2), -1, "L3", True)),
}
CASE_IDS = tuple(_CASES)

# normalization used when comparing engine values (which keep the twist
# trace scalars symbolic) against printed closed forms (which absorb them)
_UNIT_TWIST = {"dimF": 1, "trPhi": 1, "trPhi2": 1}


def enumerate_cases(nbar):
    """The five index tuples of the boundary-sum constraint, read off _CASES.

    r + l - k - j - |alpha| - 1 = -(nbar + 2) with r <= -2 and l <= 2 - nbar
    reads (-2 - r) + (2 - nbar - l) + j + k + |alpha| = 1: one unit of
    deficit to place on one of five indices, so there are exactly five
    solutions.  Returns a fresh {case_id: dict} in report order, each with
    the combinatorial prefactor (-i)^(|alpha|+j+k+1) / (alpha! (j+k+1)!).
    """
    check_nbar(nbar)
    out = {}
    for cid, (unit, _printed) in _CASES.items():
        deficit = {"r": 0, "l": 0, "j": 0, "k": 0, "alpha": 0, unit: 1}
        alpha, jk = deficit["alpha"], deficit["j"] + deficit["k"]
        pre = ((-GR_I) ** (alpha + jk + 1)) * GaussRational(
            Fraction(1, factorial(alpha) * factorial(jk + 1))
        )
        out[cid] = {**deficit, "r": -2 - deficit["r"], "l": 2 - nbar - deficit["l"],
                    "prefactor": pre}
    return out


class SphereSymbol(Blades):
    """Clifford-blade-valued rational function of the normal covariable.

    The blade algebra over HalfPlaneRational: the sphere-restricted form of
    a CliffXi, closed under products, the upper-half-plane projection, and
    normal-covariable derivatives.  Case integrands are traced grade-0
    joins, f.mul_grade0(g).trace(rule).
    """

    __slots__ = ()

    coeff = HalfPlaneRational

    @classmethod
    def from_cliffxi(cls, cx):
        return cls(cx.dim, cx.alphabet, cx.restrict_sphere())

    def pi_plus(self):
        return self._map(lambda f: f.pi_plus())

    def deriv(self, k=1):
        k = check_int("k", k, nonnegative=True)  # checked on a zero symbol too
        return self._map(lambda f: f.deriv(k))


# One boundary case: exact value (coefficient of pi, VolS included), traced
# integrand before the prefactor, per-part split, printed comparison.  Its
# records are read-only mappings, so the cache hands out one shared result.
BoundaryCaseResult = namedtuple("BoundaryCaseResult", "case_id nbar value integrand "
                                "parts printed comparisons derivation_trace")


@lru_cache(maxsize=None)
def _pipeline(nbar):
    """Symbol-calculus inputs shared by all cases at a given nbar."""
    check_nbar(nbar)
    n = nbar + 2
    alphabet = standard_alphabet(n)
    # collar value of the normal connection-contraction scalar
    gdn = ParamPoly.var(alphabet, "hp0") * Fraction(nbar + 1, 2)
    op = laplace_symbol(n, alphabet, None, gdn)
    par = invert_symbol(op, 1)
    pw = power_symbol(op, nbar, par)
    # shared read-only: the orders maps, the pieces and what the meta carry
    # (pw's holds op's and par's values and the power symbol's parts)
    for symbol in (op, par, pw):
        symbol.orders = MappingProxyType({o: read_only(c) for o, c in symbol.orders.items()})
    for value in (gdn, pw.meta["W"], *pw.meta["K"], *pw.meta["parts"].values()):
        read_only(value)
    return n, alphabet, op, par, pw


def _record(term, nbar, printed, engine, note=None):
    """A read-only comparison record of a printed form and an engine value."""
    rec = {
        "term": term,
        "nbar": nbar,
        "printed": str(printed),
        "engine": str(engine),
        "agree": printed == engine,
    }
    if note:
        rec["note"] = note
    return MappingProxyType(rec)


# printed side and note of a record whose closed form is undefined at this
# nbar; a string never equals an engine value, so such records disagree
_OUT_OF_DOMAIN = (
    "out of domain: closed form contains a factorial of a negative integer"
)
_RECOMPUTED = "engine value recomputed directly from the cases"


def _normalized(value):
    """Engine value with the twist trace scalars set to one, for comparison
    with printed forms that absorb them."""
    return value.subs(_UNIT_TWIST)


def _drift_record(term, nbar, printed, engine):
    """Drift comparison; printed is None where its closed form is undefined."""
    if printed is None:
        return _record(term, nbar, _OUT_OF_DOMAIN, _normalized(engine),
                       note=_RECOMPUTED)
    return _record(term, nbar, printed, _normalized(engine))


# ---------------------------------------------------------------------------
# printed closed forms, transcribed from the paper as rows and re-evaluated
# exactly; no row is derived from the engine
# ---------------------------------------------------------------------------

# printed bracket: the order-k derivative of sum_m c_m xi^m / (xi + i)^p at
# xi = i, with h = nbar / 2; each row is ({m: (re c_m, im c_m)} as a
# function of nbar, p - h, k - h)
_PRINTED_BRACKETS = {
    "L0": (lambda nbar: {3: (0, 2 * nbar - 2), 2: (4 * nbar - 4, 0), 1: (0, -2),
                         0: (-4, 0)}, 1, 2),
    "L1": (lambda nbar: {0: (1, 0)}, 0, 2),
    "L2": (lambda nbar: {3: (-(nbar - 2) * (nbar + 1), 0),
                         1: (-2 * nbar * nbar + 3 * nbar - 2, 0)}, 1, 2),
    "L3": (lambda nbar: {2: (0, nbar), 1: (nbar + 2, 0)}, 0, 2),
    "Lb": (lambda nbar: {1: (1, 0)}, 0, 1),
    "Lphi": (lambda nbar: {3: (0, -2 * nbar + 4), 2: (-4 * nbar, 0),
                           1: (0, 2 * nbar + 4)}, 1, 2),
}

@lru_cache(maxsize=None)
def _brackets(nbar):
    """Every printed bracket at nbar, evaluated exactly, as a read-only
    mapping name -> value."""
    check_nbar(nbar)
    h = nbar // 2
    out = {}
    for name, (coeffs, dp, dk) in _PRINTED_BRACKETS.items():
        value = GaussRational(0)
        for m, c in coeffs(nbar).items():
            value = value + GaussRational(*c) * deriv_at_i(m, h + dp, h + dk)
        out[name] = value
    return MappingProxyType(out)


def _drift_poly(alphabet, n):
    """X_n - 2 Y_n, the only drift data surviving on the boundary."""
    return ParamPoly.var(alphabet, f"X_{n}") - ParamPoly.var(alphabet, f"Y_{n}") * 2


def _printed_total(factor, scalar, power, fact):
    """The one printed-total formula, factor VolS scalar 2^power / fact!, as
    the exact coefficient of pi; factor is a ParamPoly."""
    return factor * ParamPoly.var(factor.alphabet, "VolS") * (
        scalar * GaussRational(Fraction(2) ** power / factorial(fact))
    )


def _printed_drift_part(nbar, alphabet):
    """The shared (X_n - 2 Y_n) contribution printed for cases b and c."""
    h = nbar // 2
    scalar = GaussRational(2 - nbar) * _brackets(nbar)["Lb"]
    return _printed_total(_drift_poly(alphabet, nbar + 2), scalar, h - 2, h + 1)


def printed_case_value(case_id, nbar, alphabet):
    """Printed total of one case, as the exact coefficient of pi."""
    if case_id not in CASE_IDS:
        raise ValidationError("case_id", f"unknown case {case_id!r}")
    row = _CASES[case_id][1]
    if row is None:
        return ParamPoly.zero(alphabet)
    factors, offset, bracket, drift = row
    h = nbar // 2
    scalar = factors(h) * _brackets(nbar)[bracket]
    value = _printed_total(ParamPoly.var(alphabet, "hp0"), scalar, h + offset, h + 2)
    return value + _printed_drift_part(nbar, alphabet) if drift else value


def _printed_pi_plus_b1(nbar, alphabet):
    """Printed projected normal part of case c,
    i h'(0) (i nbar / (8 (xi - i)^2) + 1 / (4 (xi - i)^3))."""
    return (
        HalfPlaneRational(
            alphabet,
            [ParamPoly.const(alphabet, GaussRational(0, Fraction(nbar, 8)))],
            a=2,
        )
        + HalfPlaneRational(
            alphabet, [ParamPoly.const(alphabet, Fraction(1, 4))], a=3
        )
    ).scale(ParamPoly.var(alphabet, "hp0") * GR_I)


def _printed_closed_factor(nbar):
    """z(nbar) (h+2)(h+3)...(nbar-1), shared by the printed closed forms."""
    h = nbar // 2
    z = GaussRational(
        0,
        Fraction(-nbar ** 4, 2)
        - nbar ** 3
        + Fraction(5 * nbar ** 2, 4)
        + Fraction(5 * nbar, 2),
    )
    return z * GaussRational(prod(range(h + 2, nbar)))


def printed_phi_parts(nbar, alphabet):
    """Printed total boundary density, split like the engine's output.

    Returns a dict with the bracket-evaluated h'(0) part, its closed-form
    variant, and the (X_n - 2 Y_n) part, None at nbar = 2: its closed form
    contains (nbar/2 - 2)!, which is undefined there.
    """
    h = nbar // 2
    hp0 = ParamPoly.var(alphabet, "hp0")
    # (h - 1) 2i / (h + 2)! times the bracket form or the closed form
    shared = GaussRational(h - 1) * GaussRational(0, 2)
    out = {
        "hprime_part": _printed_total(hp0, shared * _brackets(nbar)["Lphi"], h - 2, h + 2),
        "hprime_part_closed": _printed_total(
            hp0, shared * _printed_closed_factor(nbar), -(h + 2), h + 2
        ),
        "drift_part": None,
    }
    if h >= 2:
        scalar = GaussRational(3 * nbar - 6) * GaussRational(
            Fraction(factorial(nbar - 1), 2 ** nbar * factorial(h - 2))
            + Fraction(factorial(nbar), 2 ** (nbar + 1) * factorial(h - 1))
        )
        out["drift_part"] = _printed_total(_drift_poly(alphabet, nbar + 2), scalar, h - 2, h + 1)
    return out


def printed_wres_k_coefficient(nbar, alphabet):
    """Printed coefficient of K in the assembled boundary term (times pi)."""
    h = nbar // 2
    scalar = (
        GaussRational(-(nbar - 2))
        * GR_I
        * GaussRational(Fraction(1, nbar + 1))
        * _printed_closed_factor(nbar)
    )
    return _printed_total(ParamPoly.one(alphabet), scalar, -(h + 1), h + 2)


_BRACKET_ORDERS = (1, 2, 3, 4)


def bracket_table():
    """Audit of the printed derivative-bracket closed forms.

    For each denominator power p in 1..4, compares deriv_at_i(m, p, p+1) for
    m = 1, 2, 3 against the printed closed-form products.  Rows are emitted
    whether or not the two sides agree.  A fresh list of read-only records
    that are built once and shared by every call.
    """
    return list(_bracket_rows())


@lru_cache(maxsize=None)
def _bracket_rows():
    records = []
    for p in _BRACKET_ORDERS:
        printed = {
            1: GaussRational(
                Fraction(-prod(range(p + 2, 2 * p + 2)), 2 ** (2 * p + 3))
            ),
            2: GaussRational(0, Fraction(prod(range(p - 1, 2 * p)), 2 ** (2 * p))),
            3: GaussRational(Fraction(3 * prod(range(p, 2 * p)), 2 ** (2 * p + 1))),
        }
        for m in (1, 2, 3):
            engine = deriv_at_i(m, p, p + 1)
            records.append(MappingProxyType({
                "term": f"bracket_m{m}_p{p}",
                "m": m,
                "p": p,
                "printed": str(printed[m]),
                "engine": str(engine),
                "agree": printed[m] == engine,
            }))
    return tuple(records)


# ---------------------------------------------------------------------------
# engine evaluation of the five cases
# ---------------------------------------------------------------------------


_BRACKET_OP = "printed bracket derivative evaluated exactly"
_BRACKET_OPS = {"Lb": "printed drift bracket evaluated exactly"}


def _evaluate(case_id, nbar, steps, products=(), second=None,
              extra_steps=(), extra_records=(), brackets=(), drift=None):
    """One boundary case from what its caller builds on the pipeline.

    Logs `steps` (id, op, value), showing a SphereSymbol factor by its
    scalar part.  Each of `products` (part name or None, f, g) is traced as
    f.mul_grade0(g), integrated and scaled by prefactor * VolS.  A case
    that gives `second` (f, g, note, strict), its form before integration by
    parts, is stated in its by-parts form and so takes the opposite sign;
    `second` keeps the prefactor's sign, and a strict one raises on a
    mismatch.
    `extra_steps` follow the integral and the printed `brackets` come last;
    `extra_records` follow the by-parts record, and `drift` (two part names,
    note) gives the drift record of a split case.
    """
    alphabet = _pipeline(nbar)[1]
    rule = standard_label_trace(alphabet)
    pre = enumerate_cases(nbar)[case_id]["prefactor"]
    pre = pre if second is None else -pre
    vol = ParamPoly.var(alphabet, "VolS")
    trace = []

    def log(step_id, op, v):
        v = v.coefficient(0) if isinstance(v, SphereSymbol) else v
        trace.append({"id": step_id, "op": op, "value": str(v)})

    def integral(f, g):
        integrand = f.mul_grade0(g).trace(rule)
        return integrand, integrand.real_line_integral()

    for step in steps:
        log(*step)
    value = coeff = ParamPoly.zero(alphabet)
    integrand = HalfPlaneRational.zero(alphabet)
    parts = {}
    for name, f, g in products:
        integ, c = integral(f, g)
        val = c * pre * vol
        value, coeff, integrand = value + val, coeff + c, integrand + integ
        if name is None:
            log("traced_integrand", "fibre trace of the product", integ)
        else:
            parts[name] = MappingProxyType({"integrand": read_only(integ),
                                            "value": read_only(val)})
            log(f"part_{name}", "traced part integrand", integ)
    if products:
        log("integral", "residue integral (coefficient of pi)", coeff)
    for step in extra_steps:
        log(*step)
    for name in brackets:
        log(name, _BRACKET_OPS.get(name, _BRACKET_OP), _brackets(nbar)[name])

    printed = printed_case_value(case_id, nbar, alphabet)
    records = [_record(f"case_{case_id}_total", nbar, printed, _normalized(value))]
    if second is not None:
        f, g, note, strict = second
        other = integral(f, g)[1] * -pre * vol
        if strict and other != value:
            raise ValidationError(
                case_id, f"integration-by-parts forms disagree: {other} vs {value}"
            )
        records.append(
            _record(f"case_{case_id}_by_parts", nbar, other, value, note=note)
        )
    records.extend(extra_records)
    if drift is not None:
        (p, q), note = drift
        records.append(
            _record(
                f"case_{case_id}_drift_part",
                nbar,
                _printed_drift_part(nbar, alphabet),
                _normalized(parts[p]["value"] + parts[q]["value"]),
                note=note,
            )
        )
    return BoundaryCaseResult(
        case_id, nbar, read_only(value), read_only(integrand),
        MappingProxyType(parts) if parts else None,
        read_only(printed), tuple(records), tuple(map(MappingProxyType, trace)),
    )


def _sphere(cx):
    return SphereSymbol.from_cliffxi(cx)


def _aI(case_id, nbar):
    pw = _pipeline(nbar)[4]
    # every coefficient in the jet ring is constant along the boundary
    # directions, so the tangential x-derivative of the power symbol vanishes
    return _evaluate(case_id, nbar, [
        ("power_top", "leading power symbol", pw[2 - nbar]),
        ("tangential_jet", "tangential x-derivative of every coefficient",
         "0 (no tangential base-point dependence)"),
    ])


def _aII(case_id, nbar):
    _n, _al, _op, par, pw = _pipeline(nbar)
    dsig = _sphere(par[-2].d_xn())
    proj = dsig.pi_plus()
    dd = _sphere(pw[2 - nbar].d_xin(2))
    steps = [
        ("dxn_sigma_m2", "normal x-derivative of the order -2 symbol", dsig),
        ("pi_plus", "upper-half-plane projection", proj),
        ("d2xi_power_top", "second covariable derivative of the power symbol", dd),
    ]
    return _evaluate(case_id, nbar, steps, [(None, proj, dd)], brackets=["L0"])


def _aIII(case_id, nbar):
    _n, _al, _op, par, pw = _pipeline(nbar)
    base = _sphere(par[-2]).pi_plus()
    # both derivatives on the projection; before integration by parts, one
    # is on the projected factor and one more on the power symbol
    f = base.deriv(2)
    g = _sphere(pw[2 - nbar].d_xn())
    second = (base.deriv(1), _sphere(pw[2 - nbar].d_xn().d_xin(1)),
              "two integration-by-parts forms", True)
    steps = [
        ("d2_pi_plus_sigma_m2",
         "second derivative of the projected order -2 symbol", f),
        ("dxn_power_top", "normal x-derivative of the power symbol", g),
    ]
    return _evaluate(case_id, nbar, steps, [(None, f, g)], second, brackets=["L1"])


def _b(case_id, nbar):
    _n, _al, _op, par, pw = _pipeline(nbar)
    proj = _sphere(par[-2]).pi_plus()
    dproj = proj.deriv(1)
    power = pw.meta["parts"]
    parts = [(name, dproj, _sphere(power[key]))
             for name, key in (("A1", "normal"), ("A2", "drift"), ("A3", "twist"))]
    # the pre-parts form puts the derivative on the subleading power symbol
    second = (proj, _sphere(pw[1 - nbar].d_xin(1)),
              "derivative moved between factors", False)
    steps = [("d_pi_plus_sigma_m2", "derivative of the projected order -2 symbol",
              dproj)]
    return _evaluate(case_id, nbar, steps, parts, second, brackets=["L2", "Lb"],
                     drift=(("A2", "A3"), None))


def _c(case_id, nbar):
    _n, alphabet, op, _par, pw = _pipeline(nbar)
    dsig = _sphere(pw[2 - nbar].d_xin(1))
    projected = [_sphere(cx).pi_plus() for cx in drift_subsymbol_parts(op)]
    parts = [(name, proj, dsig) for name, proj in zip(("B1", "B2", "B3"), projected)]
    # the engine value reflects the collar scalar fixed in the pipeline
    pi_b1 = projected[0].coefficient(0)
    normal = _record(
        "case_c_projected_normal_part", nbar, _printed_pi_plus_b1(nbar, alphabet),
        pi_b1, note="printed form implies a different collar scalar than the "
        "value used consistently by the engine",
    )
    steps = [("d_power_top", "covariable derivative of the power symbol", dsig)]
    return _evaluate(
        case_id, nbar, steps, parts,
        extra_steps=[("pi_plus_B1", "projected normal part", pi_b1)],
        extra_records=[normal], brackets=["L3"],
        drift=(("B2", "B3"), "printed value repeats the case-b drift part with "
               "the same sign; the engine derivative flips it"),
    )


_CASE_FN = {"aI": _aI, "aII": _aII, "aIII": _aIII, "b": _b, "c": _c}


@lru_cache(maxsize=None)
def _boundary_case_symbolic(case_id, nbar):
    return _CASE_FN[case_id](case_id, nbar)


def _check_bundle(nbar, geo):
    """Refuse an unsupported nbar, or point data that is not a bundle of
    dimension nbar + 2."""
    check_nbar(nbar)
    if geo is None:
        return
    if not isinstance(geo, GeometricBundle):
        raise ValidationError(
            "geo", f"expected a GeometricBundle or None, got {type(geo).__name__}"
        )
    if geo.n != nbar + 2:
        raise ValidationError("geo", f"bundle dimension {geo.n} != {nbar + 2}")


def boundary_case(case_id, nbar, geo=None):
    """One boundary case, shared with every caller; geo substitutes exact
    point data into a new result that shares the records."""
    if case_id not in CASE_IDS:
        raise ValidationError("case_id", f"unknown case {case_id!r}")
    _check_bundle(nbar, geo)
    res = _boundary_case_symbolic(case_id, nbar)
    if geo is None:
        return res
    parts = res.parts and MappingProxyType({
        k: MappingProxyType({**v, "value": geo.subs(v["value"])})
        for k, v in res.parts.items()
    })
    return res._replace(value=geo.subs(res.value), parts=parts,
                        printed=geo.subs(res.printed))


def _coefficient(poly, name):
    """P such that name * P is the part of poly whose terms contain name."""
    terms = {}
    for mono, c in poly.terms.items():
        exps = dict(mono)
        e = exps.pop(name, 0)
        if e:
            if e > 1:
                exps[name] = e - 1
            terms[tuple(sorted(exps.items()))] = c
    return ParamPoly(poly.alphabet, terms)


# The part of total_boundary_phi and wres_with_boundary that reads no point
# data, built once per nbar, all read-only: the shared cases, the symbolic
# total with its h'(0) and drift parts, the structure flags, the printed
# parts, the K and drift groupings, and the comparison records of each.
@lru_cache(maxsize=None)
def _assembly(nbar):
    n = nbar + 2
    alphabet = standard_alphabet(n)
    cases = {cid: _boundary_case_symbolic(cid, nbar) for cid in CASE_IDS}
    value = ParamPoly.zero(alphabet).plus(res.value for res in cases.values())

    # one pass: each term goes to the h'(0) part, the drift part or the
    # leftover, and each part's shape is checked on the way
    xn, yn = f"X_{n}", f"Y_{n}"
    hprime, drift, leftover = {}, {}, {}
    hp_linear = drift_linear = normal_only = True
    for mono, c in value.terms.items():
        exps = dict(mono)
        if "hp0" in exps:
            hprime[mono] = c
            hp_linear &= exps["hp0"] == 1
        elif xn in exps or yn in exps:
            drift[mono] = c
            drift_linear &= exps.get(xn, 0) + exps.get(yn, 0) == 1
        else:
            leftover[mono] = c
        normal_only &= not any(
            v.startswith(("X_", "Y_")) and v not in (xn, yn) for v in exps
        )
    hprime_part, drift_part = ParamPoly(alphabet, hprime), ParamPoly(alphabet, drift)
    drift_coeff = _coefficient(drift_part, xn)
    k_coeff = _coefficient(hprime_part, "hp0") * Fraction(-2, nbar + 1)

    printed = printed_phi_parts(nbar, alphabet)
    printed_drift, printed_k = printed["drift_part"], printed_wres_k_coefficient(nbar, alphabet)
    phi_records = (
        _record(
            "phi_hprime_part", nbar, printed["hprime_part"], _normalized(hprime_part)
        ),
        _record(
            "phi_hprime_closed_form",
            nbar,
            printed["hprime_part_closed"],
            _normalized(hprime_part),
        ),
        _drift_record("phi_drift_part", nbar, printed_drift, drift_part),
        *(rec for res in cases.values() for rec in res.comparisons),
    )
    return MappingProxyType({
        "cases": MappingProxyType(cases),
        "symbolic": MappingProxyType({k: read_only(v) for k, v in (
            ("value", value), ("hprime_part", hprime_part), ("drift_part", drift_part))}),
        "structure": MappingProxyType({
            "no_stray_terms": not leftover,
            "hprime_linear": hp_linear,
            "drift_linear": drift_linear,
            # the drift part pairs Y_n with exactly -2 times the X_n coefficient
            "drift_paired": _coefficient(drift_part, yn) == drift_coeff * (-2),
            "only_normal_components": normal_only,
        }),
        "printed": MappingProxyType(
            {k: None if v is None else read_only(v) for k, v in printed.items()}),
        "phi_comparisons": phi_records,
        "groupings": MappingProxyType({k: read_only(v) for k, v in (
            ("K_coefficient", k_coeff), ("K_coefficient_printed", printed_k),
            ("drift_coefficient", drift_coeff), ("extrinsic_K", extrinsic_K(nbar)))}),
        "wres_comparisons": phi_records + (
            _record("wres_K_coefficient", nbar, printed_k, _normalized(k_coeff)),
            _drift_record("wres_drift_coefficient", nbar, None if printed_drift is None
                          else _coefficient(printed_drift, xn), drift_coeff),
        ),
    })


def total_boundary_phi(nbar, geo=None):
    """Sum of the five boundary cases, split into its two printed groupings.

    Returns a dict with the total (coefficient of pi, VolS symbolic), the
    h'(0)-proportional and (X_n - 2 Y_n)-proportional parts, structural
    checks, and comparison records against the printed closed form.  Only
    the three values read geo; everything else is built once per nbar and
    shared: "symbolic", "structure", "printed" and the records are
    read-only mappings, "cases" and "comparisons" fresh containers.
    """
    _check_bundle(nbar, geo)
    memo = _assembly(nbar)
    return {
        "nbar": nbar,
        "cases": dict(memo["cases"]),
        "symbolic": memo["symbolic"],
        **{k: v if geo is None else geo.subs(v) for k, v in memo["symbolic"].items()},
        "structure": memo["structure"],
        "printed": memo["printed"],
        "comparisons": list(memo["phi_comparisons"]),
    }


def extrinsic_K(nbar):
    """Trace of the second fundamental form of the collar metric."""
    check_nbar(nbar)
    alphabet = standard_alphabet(nbar + 2)
    return ParamPoly.var(alphabet, "hp0") * Fraction(-(nbar + 1), 2)


def wres_with_boundary(nbar, geo=None, mode="oracle"):
    """Interior density paired with the boundary term and its groupings.

    The boundary part is re-expressed through the extrinsic curvature K
    (h'(0) = -2K/(nbar+1)) and the normal drift combination X_n - 2 Y_n;
    both coefficients are compared against the printed assembly.  The
    groupings, a read-only mapping, and the records are built once per nbar,
    with the boundary's, and shared; "comparisons" is a fresh list.
    """
    # nbar, geo and mode are refused before any memo; the density comes first
    _check_bundle(nbar, geo)
    density, (pi_power, prefactor) = interior_wres(
        geo if geo is not None else GeometricBundle(nbar + 2), mode
    )
    boundary = total_boundary_phi(nbar, geo)
    memo = _assembly(nbar)
    return {
        "nbar": nbar,
        "mode": mode,
        "interior": {
            "density": density,
            "pi_power": pi_power,
            "prefactor": prefactor,
        },
        "boundary": boundary,
        "groupings": memo["groupings"],
        "comparisons": list(memo["wres_comparisons"]),
    }
