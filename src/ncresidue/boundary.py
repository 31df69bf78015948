"""Boundary contribution: the five covariable-jet cases of the residue
expansion, the assembled boundary density, the extrinsic curvature of the
collar metric, and the paired interior + boundary total.

Each case is evaluated by the engine pipeline -- Clifford trace first, then
projection / differentiation in the normal covariable, then exact residue
integration -- and compared against the printed closed forms, which are
re-evaluated here from their bracket definitions via deriv_at_i.
Disagreements are reported as comparison records, never patched.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod

from .clifford import Blades
from .errors import ValidationError
from .exact import GR_I, GaussRational, ParamPoly
from .geometry import (
    GeometricBundle,
    check_nbar,
    interior_wres,
    standard_alphabet,
    standard_label_trace,
)
from .halfplane import HalfPlaneRational, deriv_at_i
from .symbols import drift_subsymbol_parts, invert_symbol, laplace_symbol, power_symbol

CASE_IDS = ("aI", "aII", "aIII", "b", "c")

# normalization used when comparing engine values (which keep the twist
# trace scalars symbolic) against printed closed forms (which absorb them)
_UNIT_TWIST = {"dimF": 1, "trPhi": 1, "trPhi2": 1}


def enumerate_cases(nbar):
    """All index tuples satisfying the boundary-sum constraint.

    The constraint r + l - k - j - |alpha| - 1 = -(nbar + 2) with r <= -2 and
    l <= 2 - nbar leaves a total deficit of one unit to distribute, so there
    are exactly five solutions.  Returns {case_id: dict} with the
    combinatorial prefactor (-i)^(|alpha|+j+k+1) / (alpha! (j+k+1)!).
    """
    check_nbar(nbar)
    found = []
    for r in range(-2, -6, -1):
        for l in range(2 - nbar, 2 - nbar - 4, -1):
            for j in range(0, 3):
                for k in range(0, 3):
                    for alpha in range(0, 3):
                        if r + l - k - j - alpha - 1 == -(nbar + 2):
                            found.append((r, l, j, k, alpha))
    if len(found) != 5:
        raise ValidationError(
            "cases", f"constraint enumeration produced {len(found)} cases, not 5"
        )
    out = {}
    for (r, l, j, k, alpha) in found:
        if alpha == 1:
            cid = "aI"
        elif j == 1:
            cid = "aII"
        elif k == 1:
            cid = "aIII"
        elif l == 1 - nbar:
            cid = "b"
        else:
            cid = "c"
        pre = ((-GR_I) ** (alpha + j + k + 1)) * GaussRational(
            Fraction(1, factorial(alpha) * factorial(j + k + 1))
        )
        out[cid] = {"r": r, "l": l, "j": j, "k": k, "alpha": alpha, "prefactor": pre}
    if set(out) != set(CASE_IDS):
        raise ValidationError("cases", f"unexpected case labels {sorted(out)}")
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
        return self._map(lambda f: f.deriv(k))


class BoundaryCaseResult:
    """One boundary case: exact value, per-part split, printed comparison."""

    __slots__ = (
        "case_id",
        "nbar",
        "value",
        "pi_power",
        "case_prefactor",
        "integrand",
        "parts",
        "printed",
        "comparisons",
        "derivation_trace",
    )

    def __init__(self, case_id, nbar, value, case_prefactor, integrand, parts,
                 printed, comparisons, derivation_trace):
        self.case_id = case_id
        self.nbar = nbar
        self.value = value          # ParamPoly coefficient of pi (VolS included)
        self.pi_power = 1
        self.case_prefactor = case_prefactor
        self.integrand = integrand  # traced HalfPlaneRational (pre-prefactor)
        self.parts = parts
        self.printed = printed
        self.comparisons = comparisons
        self.derivation_trace = derivation_trace

    def __repr__(self):
        return f"BoundaryCaseResult({self.case_id}, nbar={self.nbar}, value={self.value})"


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
    return n, alphabet, op, par, pw


def _vol(alphabet):
    return ParamPoly.var(alphabet, "VolS")


def _record(term, nbar, printed, engine, note=None):
    rec = {
        "term": term,
        "nbar": nbar,
        "printed": str(printed),
        "engine": str(engine),
        "agree": printed == engine,
    }
    if note:
        rec["note"] = note
    return rec


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


# ---------------------------------------------------------------------------
# printed closed forms, re-evaluated exactly from their bracket definitions
# ---------------------------------------------------------------------------


def _bracket(coeffs_by_power, p, k):
    """Derivative of sum_m c_m xi^m / (xi + i)^p at xi = i, order k."""
    out = GaussRational(0)
    for m, c in coeffs_by_power.items():
        out = out + c * deriv_at_i(m, p, k)
    return out


def _printed_L0(nbar):
    h = nbar // 2
    return _bracket(
        {
            3: GaussRational(0, 2 * nbar - 2),
            2: GaussRational(4 * nbar - 4),
            1: GaussRational(0, -2),
            0: GaussRational(-4),
        },
        h + 1,
        h + 2,
    )


def _printed_L1(nbar):
    h = nbar // 2
    return deriv_at_i(0, h, h + 2)


def _printed_L2(nbar):
    h = nbar // 2
    return _bracket(
        {
            3: GaussRational(-(nbar - 2) * (nbar + 1)),
            1: GaussRational(-2 * nbar * nbar + 3 * nbar - 2),
        },
        h + 1,
        h + 2,
    )


def _printed_L3(nbar):
    h = nbar // 2
    return _bracket(
        {2: GaussRational(0, nbar), 1: GaussRational(nbar + 2)},
        h,
        h + 2,
    )


def _printed_Lb(nbar):
    h = nbar // 2
    return deriv_at_i(1, h, h + 1)


def _drift_poly(alphabet, n):
    """X_n - 2 Y_n, the only drift data surviving on the boundary."""
    return ParamPoly.var(alphabet, f"X_{n}") - ParamPoly.var(alphabet, f"Y_{n}") * 2


def _printed_drift_part(nbar, alphabet):
    """The shared (X_n - 2 Y_n) contribution printed for cases b and c."""
    h = nbar // 2
    scalar = (
        GaussRational(2 - nbar)
        * GaussRational(2) ** (h - 2)
        * _printed_Lb(nbar)
        * GaussRational(Fraction(1, factorial(h + 1)))
    )
    return _drift_poly(alphabet, nbar + 2) * _vol(alphabet) * scalar


def printed_case_value(case_id, nbar, alphabet):
    """Printed total of one case, as the exact coefficient of pi."""
    h = nbar // 2
    hp0 = ParamPoly.var(alphabet, "hp0")
    vol = _vol(alphabet)
    if case_id == "aI":
        return ParamPoly.zero(alphabet)
    if case_id == "aII":
        scalar = (
            GaussRational(Fraction(-1, 4))
            * GaussRational(h - 1)
            * GR_I
            * GaussRational(2) ** (h + 1)
            * _printed_L0(nbar)
            * GaussRational(Fraction(1, factorial(h + 2)))
        )
        return hp0 * vol * scalar
    if case_id == "aIII":
        scalar = (
            GaussRational(1 - h)
            * GaussRational(2) ** (h + 1)
            * _printed_L1(nbar)
            * GaussRational(Fraction(1, factorial(h + 2)))
        )
        return hp0 * vol * scalar
    if case_id == "b":
        scalar = (
            GaussRational(2) ** (h - 1)
            * _printed_L2(nbar)
            * GaussRational(Fraction(1, factorial(h + 2)))
        )
        return hp0 * vol * scalar + _printed_drift_part(nbar, alphabet)
    if case_id == "c":
        scalar = (
            GaussRational(1 - h)
            * GaussRational(2) ** (h - 1)
            * GaussRational(0, 2)
            * _printed_L3(nbar)
            * GaussRational(Fraction(1, factorial(h + 2)))
        )
        return hp0 * vol * scalar + _printed_drift_part(nbar, alphabet)
    raise ValidationError("case_id", f"unknown case {case_id!r}")


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
    variant, and the (X_n - 2 Y_n) part with a domain flag: the closed form
    contains (nbar/2 - 2)! which is undefined at nbar = 2.
    """
    h = nbar // 2
    hp0 = ParamPoly.var(alphabet, "hp0")
    vol = _vol(alphabet)
    lphi = _bracket(
        {
            3: GaussRational(0, -2 * nbar + 4),
            2: GaussRational(-4 * nbar),
            1: GaussRational(0, 2 * nbar + 4),
        },
        h + 1,
        h + 2,
    )
    bracket_scalar = (
        GaussRational(h - 1)
        * GaussRational(0, 2)
        * GaussRational(Fraction(1, factorial(h + 2)))
        * GaussRational(2) ** (h - 2)
        * lphi
    )
    closed_scalar = (
        GaussRational(h - 1)
        * GaussRational(0, 2)
        * GaussRational(Fraction(1, factorial(h + 2)))
        * _printed_closed_factor(nbar)
        * GaussRational(Fraction(1, 2 ** (h + 2)))
    )
    out = {
        "hprime_part": hp0 * vol * bracket_scalar,
        "hprime_part_closed": hp0 * vol * closed_scalar,
        "drift_domain_ok": h >= 2,
        "drift_part": None,
    }
    if h >= 2:
        scalar = (
            GaussRational(3 * nbar - 6)
            * GaussRational(2) ** (h - 2)
            * GaussRational(Fraction(1, factorial(h + 1)))
            * GaussRational(
                Fraction(factorial(nbar - 1), 2 ** nbar * factorial(h - 2))
                + Fraction(factorial(nbar), 2 ** (nbar + 1) * factorial(h - 1))
            )
        )
        out["drift_part"] = _drift_poly(alphabet, nbar + 2) * vol * scalar
    return out


def printed_wres_k_coefficient(nbar, alphabet):
    """Printed coefficient of K in the assembled boundary term (times pi)."""
    h = nbar // 2
    scalar = (
        GaussRational(-(nbar - 2))
        * GR_I
        * GaussRational(Fraction(1, (nbar + 1) * factorial(h + 2)))
        * _printed_closed_factor(nbar)
        * GaussRational(Fraction(1, 2 ** (h + 1)))
    )
    return _vol(alphabet) * scalar


def bracket_table(orders=(1, 2, 3, 4)):
    """Audit of the printed derivative-bracket closed forms.

    For each denominator power p, compares deriv_at_i(m, p, p+1) for
    m = 1, 2, 3 against the printed closed-form products.  Rows are emitted
    whether or not the two sides agree.
    """
    records = []
    for p in orders:
        printed = {
            1: GaussRational(
                Fraction(-prod(range(p + 2, 2 * p + 2)), 2 ** (2 * p + 3))
            ),
            2: GaussRational(0, Fraction(prod(range(p - 1, 2 * p)), 2 ** (2 * p))),
            3: GaussRational(Fraction(3 * prod(range(p, 2 * p)), 2 ** (2 * p + 1))),
        }
        for m in (1, 2, 3):
            engine = deriv_at_i(m, p, p + 1)
            records.append(
                {
                    "term": f"bracket_m{m}_p{p}",
                    "m": m,
                    "p": p,
                    "printed": str(printed[m]),
                    "engine": str(engine),
                    "agree": printed[m] == engine,
                }
            )
    return records


# ---------------------------------------------------------------------------
# engine evaluation of the five cases
# ---------------------------------------------------------------------------


def _trace_step(trace_list, step_id, op, value):
    trace_list.append({"id": step_id, "op": op, "value": str(value)})


def _case_aI(nbar):
    n, alphabet, _op, _par, pw = _pipeline(nbar)
    pre = enumerate_cases(nbar)["aI"]["prefactor"]
    trace = []
    # every coefficient in the jet ring is constant along the boundary
    # directions, so the tangential x-derivative of the power symbol vanishes
    top = pw[2 - nbar]
    _trace_step(trace, "power_top", "leading power symbol", top)
    _trace_step(
        trace,
        "tangential_jet",
        "tangential x-derivative of every coefficient",
        "0 (no tangential base-point dependence)",
    )
    zero = ParamPoly.zero(alphabet)
    return BoundaryCaseResult(
        "aI",
        nbar,
        zero,
        pre,
        HalfPlaneRational.zero(alphabet),
        None,
        zero,
        [_record("case_aI_total", nbar, zero, zero)],
        trace,
    )


def _case_aII(nbar):
    n, alphabet, _op, par, pw = _pipeline(nbar)
    rule = standard_label_trace(alphabet)
    pre = enumerate_cases(nbar)["aII"]["prefactor"]
    trace = []

    dsig = SphereSymbol.from_cliffxi(par[-2].d_xn())
    _trace_step(trace, "dxn_sigma_m2", "normal x-derivative of the order -2 symbol", dsig.coefficient(0))
    proj = dsig.pi_plus()
    _trace_step(trace, "pi_plus", "upper-half-plane projection", proj.coefficient(0))
    dd = SphereSymbol.from_cliffxi(pw[2 - nbar].d_xin(2))
    _trace_step(trace, "d2xi_power_top", "second covariable derivative of the power symbol", dd.coefficient(0))
    integrand = proj.mul_grade0(dd).trace(rule)
    _trace_step(trace, "traced_integrand", "fibre trace of the product", integrand)
    coeff = integrand.real_line_integral()
    _trace_step(trace, "integral", "residue integral (coefficient of pi)", coeff)

    value = coeff * pre * _vol(alphabet)
    printed = printed_case_value("aII", nbar, alphabet)
    _trace_step(trace, "L0", "printed bracket derivative evaluated exactly", _printed_L0(nbar))
    comparisons = [
        _record("case_aII_total", nbar, printed, _normalized(value)),
    ]
    return BoundaryCaseResult(
        "aII", nbar, value, pre, integrand, None, printed, comparisons, trace
    )


def _case_aIII(nbar):
    n, alphabet, _op, par, pw = _pipeline(nbar)
    rule = standard_label_trace(alphabet)
    pre = enumerate_cases(nbar)["aIII"]["prefactor"]
    trace = []

    base = SphereSymbol.from_cliffxi(par[-2]).pi_plus()
    # first form: derivative on the projected factor once, on the power twice
    f1 = base.deriv(1)
    g1 = SphereSymbol.from_cliffxi(pw[2 - nbar].d_xn().d_xin(1))
    integrand1 = f1.mul_grade0(g1).trace(rule)
    value1 = integrand1.real_line_integral() * pre * _vol(alphabet)
    # second form (integration by parts): both derivatives on the projection
    f2 = base.deriv(2)
    _trace_step(trace, "d2_pi_plus_sigma_m2", "second derivative of the projected order -2 symbol", f2.coefficient(0))
    g2 = SphereSymbol.from_cliffxi(pw[2 - nbar].d_xn())
    _trace_step(trace, "dxn_power_top", "normal x-derivative of the power symbol", g2.coefficient(0))
    integrand2 = f2.mul_grade0(g2).trace(rule)
    _trace_step(trace, "traced_integrand", "fibre trace of the product", integrand2)
    value2 = integrand2.real_line_integral() * (-pre) * _vol(alphabet)
    if not value1 == value2:
        raise ValidationError(
            "aIII", "integration-by-parts forms disagree: "
            f"{value1} vs {value2}"
        )
    coeff = integrand2.real_line_integral()
    _trace_step(trace, "integral", "residue integral (coefficient of pi)", coeff)

    printed = printed_case_value("aIII", nbar, alphabet)
    _trace_step(trace, "L1", "printed bracket derivative evaluated exactly", _printed_L1(nbar))
    comparisons = [
        _record("case_aIII_total", nbar, printed, _normalized(value2)),
        _record("case_aIII_by_parts", nbar, value1, value2,
                note="two integration-by-parts forms"),
    ]
    return BoundaryCaseResult(
        "aIII", nbar, value2, -pre, integrand2, None, printed, comparisons, trace
    )


def _case_b(nbar):
    n, alphabet, _op, par, pw = _pipeline(nbar)
    rule = standard_label_trace(alphabet)
    pre = enumerate_cases(nbar)["b"]["prefactor"]
    vol = _vol(alphabet)
    trace = []

    proj = SphereSymbol.from_cliffxi(par[-2]).pi_plus()
    dproj = proj.deriv(1)
    _trace_step(trace, "d_pi_plus_sigma_m2", "derivative of the projected order -2 symbol", dproj.coefficient(0))

    parts = {}
    part_cliff = pw.meta["parts"]
    total = ParamPoly.zero(alphabet)
    integrand_total = HalfPlaneRational.zero(alphabet)
    for name, key in (("A1", "normal"), ("A2", "drift"), ("A3", "twist")):
        sym = SphereSymbol.from_cliffxi(part_cliff[key])
        integ = dproj.mul_grade0(sym).trace(rule)
        val = integ.real_line_integral() * (-pre) * vol
        parts[name] = {"integrand": integ, "value": val}
        total = total + val
        integrand_total = integrand_total + integ
        _trace_step(trace, f"part_{name}", "traced part integrand", integ)

    # the pre-parts form puts the derivative on the subleading power symbol
    dpower = SphereSymbol.from_cliffxi(pw[1 - nbar].d_xin(1))
    orig_integrand = proj.mul_grade0(dpower).trace(rule)
    orig_value = orig_integrand.real_line_integral() * pre * vol
    _trace_step(trace, "integral", "residue integral (coefficient of pi)",
                integrand_total.real_line_integral())

    printed = printed_case_value("b", nbar, alphabet)
    _trace_step(trace, "L2", "printed bracket derivative evaluated exactly", _printed_L2(nbar))
    _trace_step(trace, "Lb", "printed drift bracket evaluated exactly", _printed_Lb(nbar))
    comparisons = [
        _record("case_b_total", nbar, printed, _normalized(total)),
        _record("case_b_by_parts", nbar, orig_value, total,
                note="derivative moved between factors"),
        _record(
            "case_b_drift_part",
            nbar,
            _printed_drift_part(nbar, alphabet),
            _normalized(parts["A2"]["value"] + parts["A3"]["value"]),
        ),
    ]
    return BoundaryCaseResult(
        "b", nbar, total, -pre, integrand_total, parts, printed, comparisons, trace
    )


def _case_c(nbar):
    n, alphabet, op, par, pw = _pipeline(nbar)
    rule = standard_label_trace(alphabet)
    pre = enumerate_cases(nbar)["c"]["prefactor"]
    vol = _vol(alphabet)
    hp0 = ParamPoly.var(alphabet, "hp0")
    trace = []

    dsig = SphereSymbol.from_cliffxi(pw[2 - nbar].d_xin(1))
    _trace_step(trace, "d_power_top", "covariable derivative of the power symbol", dsig.coefficient(0))

    b1, b2, b3 = drift_subsymbol_parts(op)
    parts = {}
    total = ParamPoly.zero(alphabet)
    integrand_total = HalfPlaneRational.zero(alphabet)
    for name, cx in (("B1", b1), ("B2", b2), ("B3", b3)):
        proj = SphereSymbol.from_cliffxi(cx).pi_plus()
        integ = proj.mul_grade0(dsig).trace(rule)
        val = integ.real_line_integral() * pre * vol
        parts[name] = {"integrand": integ, "value": val}
        total = total + val
        integrand_total = integrand_total + integ
        _trace_step(trace, f"part_{name}", "traced part integrand", integ)
    _trace_step(trace, "integral", "residue integral (coefficient of pi)",
                integrand_total.real_line_integral())

    # printed projected normal part: i*h'(0)*(i*nbar/(8(xi-i)^2) + 1/(4(xi-i)^3));
    # the engine value reflects the collar scalar fixed in the pipeline
    printed_pi_b1 = (
        HalfPlaneRational(
            alphabet,
            [ParamPoly.const(alphabet, GaussRational(0, Fraction(nbar, 8)))],
            a=2,
        )
        + HalfPlaneRational(
            alphabet, [ParamPoly.const(alphabet, Fraction(1, 4))], a=3
        )
    ).scale(hp0 * GR_I)
    engine_pi_b1 = SphereSymbol.from_cliffxi(b1).pi_plus().coefficient(0)
    _trace_step(trace, "pi_plus_B1", "projected normal part", engine_pi_b1)

    printed = printed_case_value("c", nbar, alphabet)
    _trace_step(trace, "L3", "printed bracket derivative evaluated exactly", _printed_L3(nbar))
    comparisons = [
        _record("case_c_total", nbar, printed, _normalized(total)),
        _record(
            "case_c_projected_normal_part",
            nbar,
            printed_pi_b1,
            engine_pi_b1,
            note="printed form implies a different collar scalar than the "
            "value used consistently by the engine",
        ),
        _record(
            "case_c_drift_part",
            nbar,
            _printed_drift_part(nbar, alphabet),
            _normalized(parts["B2"]["value"] + parts["B3"]["value"]),
            note="printed value repeats the case-b drift part with the same "
            "sign; the engine derivative flips it",
        ),
    ]
    return BoundaryCaseResult(
        "c", nbar, total, pre, integrand_total, parts, printed, comparisons, trace
    )


_CASE_FN = {
    "aI": _case_aI,
    "aII": _case_aII,
    "aIII": _case_aIII,
    "b": _case_b,
    "c": _case_c,
}


@lru_cache(maxsize=None)
def _boundary_case_symbolic(case_id, nbar):
    return _CASE_FN[case_id](nbar)


def _caller_copy(res, geo=None):
    """A cached case as handed out: its own lists and record dicts, so no
    caller can change what later calls see; geo substitutes point data."""
    sub = (lambda p: p) if geo is None else geo.subs
    parts = None
    if res.parts is not None:
        parts = {
            k: {"integrand": v["integrand"], "value": sub(v["value"])}
            for k, v in res.parts.items()
        }
    return BoundaryCaseResult(
        res.case_id,
        res.nbar,
        sub(res.value),
        res.case_prefactor,
        res.integrand,
        parts,
        sub(res.printed),
        [dict(c) for c in res.comparisons],
        [dict(step) for step in res.derivation_trace],
    )


def boundary_case(case_id, nbar, geo=None):
    """Evaluate one boundary case; geo substitutes exact point data."""
    if case_id not in _CASE_FN:
        raise ValidationError("case_id", f"unknown case {case_id!r}")
    check_nbar(nbar)
    if geo is not None and geo.n != nbar + 2:
        raise ValidationError("geo", f"bundle dimension {geo.n} != {nbar + 2}")
    return _caller_copy(_boundary_case_symbolic(case_id, nbar), geo)


def _split_by(poly, pred):
    """Partition a ParamPoly's terms by a monomial predicate."""
    yes, no = {}, {}
    for mono, c in poly.terms.items():
        (yes if pred(mono) else no)[mono] = c
    return ParamPoly(poly.alphabet, yes), ParamPoly(poly.alphabet, no)


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


def total_boundary_phi(nbar, geo=None):
    """Sum of the five boundary cases, split into its two printed groupings.

    Returns a dict with the total (coefficient of pi, VolS symbolic), the
    h'(0)-proportional and (X_n - 2 Y_n)-proportional parts, structural
    checks, and comparison records against the printed closed form.
    """
    check_nbar(nbar)
    n = nbar + 2
    alphabet = standard_alphabet(n)
    cases = {cid: _caller_copy(_boundary_case_symbolic(cid, nbar)) for cid in CASE_IDS}
    value = ParamPoly.zero(alphabet)
    for res in cases.values():
        value = value + res.value

    def has(mono, name):
        return any(v == name for v, _ in mono)

    hprime_part, rest = _split_by(value, lambda m: has(m, "hp0"))
    xn, yn = f"X_{n}", f"Y_{n}"
    drift_part, leftover = _split_by(rest, lambda m: has(m, xn) or has(m, yn))

    normal_only = all(
        not any(
            v.startswith(("X_", "Y_")) and v not in (xn, yn)
            for v, _ in mono
        )
        for mono in value.terms
    )
    hp_linear = all(
        dict(mono).get("hp0", 0) == 1 for mono in hprime_part.terms
    )
    drift_linear = all(
        dict(mono).get(xn, 0) + dict(mono).get(yn, 0) == 1
        for mono in drift_part.terms
    )
    # drift part must pair Y_n with exactly -2 times the X_n coefficient
    drift_paired = _coefficient(drift_part, yn) == _coefficient(drift_part, xn) * (-2)

    printed = printed_phi_parts(nbar, alphabet)
    comparisons = [
        _record(
            "phi_hprime_part", nbar, printed["hprime_part"], _normalized(hprime_part)
        ),
        _record(
            "phi_hprime_closed_form",
            nbar,
            printed["hprime_part_closed"],
            _normalized(hprime_part),
        ),
    ]
    if printed["drift_domain_ok"]:
        comparisons.append(
            _record(
                "phi_drift_part", nbar, printed["drift_part"], _normalized(drift_part)
            )
        )
    else:
        comparisons.append(
            _record("phi_drift_part", nbar, _OUT_OF_DOMAIN,
                    _normalized(drift_part), note=_RECOMPUTED)
        )
    for res in cases.values():
        comparisons.extend(res.comparisons)

    out = {
        "nbar": nbar,
        "cases": cases,
        "pi_power": 1,
        "symbolic": {
            "value": value,
            "hprime_part": hprime_part,
            "drift_part": drift_part,
        },
        "value": value if geo is None else geo.subs(value),
        "hprime_part": hprime_part if geo is None else geo.subs(hprime_part),
        "drift_part": drift_part if geo is None else geo.subs(drift_part),
        "structure": {
            "no_stray_terms": leftover.is_zero(),
            "hprime_linear": hp_linear,
            "drift_linear": drift_linear,
            "drift_paired": drift_paired,
            "only_normal_components": normal_only,
        },
        "printed": printed,
        "comparisons": comparisons,
    }
    return out


def extrinsic_K(nbar):
    """Trace of the second fundamental form of the collar metric."""
    check_nbar(nbar)
    alphabet = standard_alphabet(nbar + 2)
    return ParamPoly.var(alphabet, "hp0") * Fraction(-(nbar + 1), 2)


def wres_with_boundary(nbar, geo=None, mode="oracle"):
    """Interior density paired with the boundary term and its groupings.

    The boundary part is re-expressed through the extrinsic curvature K
    (h'(0) = -2K/(nbar+1)) and the normal drift combination X_n - 2 Y_n;
    both coefficients are compared against the printed assembly.
    """
    check_nbar(nbar)
    n = nbar + 2
    alphabet = standard_alphabet(n)
    geo_int = geo if geo is not None else GeometricBundle(n)
    density, (pi_power, prefactor) = interior_wres(geo_int, mode)
    phi = total_boundary_phi(nbar, geo)

    # independent re-summation of the five cases
    case_sum = ParamPoly.zero(alphabet)
    for cid in CASE_IDS:
        case_sum = case_sum + _boundary_case_symbolic(cid, nbar).value
    boundary_matches_cases = case_sum == phi["symbolic"]["value"]

    k_coeff = _coefficient(phi["symbolic"]["hprime_part"], "hp0") * Fraction(-2, nbar + 1)
    xn = f"X_{n}"
    drift_coeff = _coefficient(phi["symbolic"]["drift_part"], xn)

    printed_k = printed_wres_k_coefficient(nbar, alphabet)
    printed_phi = phi["printed"]
    comparisons = list(phi["comparisons"])
    comparisons.append(
        _record("wres_K_coefficient", nbar, printed_k, _normalized(k_coeff))
    )
    if printed_phi["drift_domain_ok"]:
        comparisons.append(
            _record(
                "wres_drift_coefficient",
                nbar,
                _coefficient(printed_phi["drift_part"], xn),
                _normalized(drift_coeff),
            )
        )
    else:
        comparisons.append(
            _record("wres_drift_coefficient", nbar, _OUT_OF_DOMAIN,
                    _normalized(drift_coeff), note=_RECOMPUTED)
        )

    return {
        "nbar": nbar,
        "mode": mode,
        "interior": {
            "density": density,
            "pi_power": pi_power,
            "prefactor": prefactor,
        },
        "boundary": phi,
        "boundary_equals_sum_of_cases": boundary_matches_cases,
        "groupings": {
            "K_coefficient": k_coeff,
            "K_coefficient_printed": printed_k,
            "drift_coefficient": drift_coeff,
            "extrinsic_K": extrinsic_K(nbar),
        },
        "comparisons": comparisons,
    }
