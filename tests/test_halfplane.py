"""Half-plane rational calculus: canonical forms, projections, residues."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ncresidue.boundary import CASE_IDS, boundary_case
from ncresidue.exact import GR_I, GR_ONE, Alphabet, GaussRational, ParamPoly
from ncresidue.errors import NotIntegrable, ValidationError
from ncresidue.halfplane import HalfPlaneRational, deriv_at_i
from ncresidue.oracle import constant_value, eval_exact, numeric_fn, poly_eval, to_complex
from conftest import (
    assert_integral_matches_quadrature,
    rand_assignment,
)

AL = Alphabet(["a", "b"])


def const(v):
    return ParamPoly.const(AL, v)


class TestCanonicalForm:
    def test_common_factor_cancels(self):
        # (xi - i)(xi + i) / (xi - i)^2 (xi + i) == 1 / (xi - i)
        num = [const(1), const(0), const(1)]  # 1 + xi^2
        f = HalfPlaneRational(AL, num, 2, 1)
        g = HalfPlaneRational(AL, [const(1)], 1, 0)
        assert f == g
        assert (f.a, f.b) == (1, 0)

    def test_from_u_power(self):
        # xi^2 (1 + xi^2)^1 expands to a polynomial numerator
        f = HalfPlaneRational.from_u_power(AL, 2, 1)
        assert (f.a, f.b) == (0, 0)
        assert [constant_value(p) for p in f.num] == [
            GaussRational(0),
            GaussRational(0),
            GR_ONE,
            GaussRational(0),
            GR_ONE,
        ]

    @pytest.mark.parametrize(
        "m, p, field",
        [(-1, 1, "m"), (True, 1, "m"), (1.5, 1, "m"), (1, True, "p"), (1, 1.5, "p"),
         (0, "2", "p")],
        ids=["negative_m", "bool_m", "float_m", "bool_p", "float_p", "string_p"],
    )
    def test_from_u_power_refuses_bad_orders(self, m, p, field):
        # m = -1 built a pole at 0 that the partial-fraction form cannot hold,
        # True ran as 1 and 1.5 raised a raw TypeError
        with pytest.raises(ValidationError) as exc:
            HalfPlaneRational.from_u_power(AL, m, p)
        assert exc.value.field == field

    def test_field_operations(self):
        u_inv = HalfPlaneRational.from_u_power(AL, 0, -1)
        u = HalfPlaneRational.from_u_power(AL, 0, 1)
        assert u * u_inv == HalfPlaneRational(AL, [const(1)], 0, 0)
        xi = HalfPlaneRational.from_u_power(AL, 1, 0)
        assert xi + (-xi) == HalfPlaneRational.zero(AL)
        assert (xi - xi).is_zero()

    def test_eval_exact_matches_numeric(self):
        rng = random.Random(3)
        f = HalfPlaneRational.from_u_power(AL, 1, -2).scale(
            GaussRational(Fraction(2, 3))
        )
        assignment = rand_assignment(AL, rng)
        x = Fraction(5, 7)
        exact = to_complex(poly_eval(eval_exact(f, GaussRational(x)), assignment))
        numeric = numeric_fn(f, assignment)(float(x))
        assert abs(exact - numeric) < 1e-12


class TestProjections:
    def test_pi_plus_of_u_inverse(self):
        # pi+ (1/(1+xi^2)) = -i/2 * 1/(xi - i)
        f = HalfPlaneRational.from_u_power(AL, 0, -1)
        p = f.pi_plus()
        assert (p.a, p.b) == (1, 0)
        assert constant_value(p.num[0]) == GaussRational(0, Fraction(-1, 2))

    def test_decomposition_reassembles(self):
        rng = random.Random(4)
        for _ in range(10):
            coeffs = [const(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                      for _ in range(3)]
            f = HalfPlaneRational(AL, coeffs, rng.randint(0, 3), rng.randint(0, 3))
            plus, minus, poly = f.partial_fractions()
            total = HalfPlaneRational(AL, poly, 0, 0) if poly else (
                HalfPlaneRational.zero(AL)
            )
            for k, coef in enumerate(plus, start=1):
                total = total + HalfPlaneRational(AL, [coef], k, 0)
            for k, coef in enumerate(minus, start=1):
                total = total + HalfPlaneRational(AL, [coef], 0, k)
            assert total == f

    def test_pi_plus_idempotent(self):
        f = HalfPlaneRational(AL, [const(2), const(1)], 2, 3)
        p = f.pi_plus()
        assert p.pi_plus() == p


class TestLineIntegral:
    def test_cauchy_kernel(self):
        # integral of 1/(1+xi^2) = pi
        f = HalfPlaneRational.from_u_power(AL, 0, -1)
        assert f.real_line_integral() == ParamPoly.one(AL)

    def test_odd_integrand_vanishes(self):
        # integral of xi/(1+xi^2)^2 = 0
        f = HalfPlaneRational.from_u_power(AL, 1, -2)
        assert f.real_line_integral().is_zero()

    def test_zero_integrand(self):
        assert HalfPlaneRational.zero(AL).real_line_integral().is_zero()

    def test_not_integrable(self):
        with pytest.raises(NotIntegrable):
            HalfPlaneRational.from_u_power(AL, 2, -1).real_line_integral()
        with pytest.raises(NotIntegrable):
            HalfPlaneRational.from_u_power(AL, 0, 1).real_line_integral()

    def test_quadrature_sample(self):
        rng = random.Random(9)
        f = HalfPlaneRational.from_u_power(AL, 2, -3).scale(
            GaussRational(Fraction(1, 2))
        ) + HalfPlaneRational.from_u_power(AL, 0, -2)
        assert_integral_matches_quadrature(f, rand_assignment(AL, rng))


class TestDerivatives:
    def test_deriv_matches_difference_of_powers(self):
        # d/dxi (xi - i)^-1 = -(xi - i)^-2
        f = HalfPlaneRational(AL, [const(1)], 1, 0)
        expected = HalfPlaneRational(AL, [const(-1)], 2, 0)
        assert f.deriv(1) == expected

    def test_deriv_linearity_and_order(self):
        f = HalfPlaneRational.from_u_power(AL, 1, -2)
        assert f.deriv(2) == f.deriv(1).deriv(1)

    @pytest.mark.parametrize("k, got", [(-1, "-1"), (True, "bool"), (1.5, "float"), ("1", "str")],
                             ids=["negative", "bool", "float", "string"])
    def test_deriv_refuses_bad_orders(self, k, got):
        # deriv(-1) of xi + xi^3 gave xi^2 + xi^4, and of a pole term raised
        # a raw TypeError; deriv(True) ran as deriv(1).  The one message rule:
        # an int is shown by its value, anything else by its type name
        polynomial = HalfPlaneRational(AL, [const(0), const(1), const(0), const(1)])
        pole = HalfPlaneRational(AL, [const(1)], 1, 0)
        for f in (polynomial, pole, HalfPlaneRational.zero(AL)):
            with pytest.raises(ValidationError) as exc:
                f.deriv(k)
            assert exc.value.field == "k"
            assert str(exc.value) == f"k: nonnegative integer required, got {got}"
        assert polynomial.deriv(0) == polynomial

    @pytest.mark.parametrize(
        "a, b, field",
        [(True, 0, "a"), (1.5, 0, "a"), (-1, 0, "a"), (0, False, "b"), (1, "2", "b"),
         (1, -2, "b")],
        ids=["bool_a", "float_a", "negative_a", "bool_b", "string_b", "negative_b"],
    )
    def test_constructor_refuses_bad_pole_orders(self, a, b, field):
        # a pole order is checked as a derivative order is: a = True was kept
        # and rendered as (xi-i)^True, 1.5 raised a raw TypeError and -1 a
        # plain ValueError
        with pytest.raises(ValidationError) as exc:
            HalfPlaneRational(AL, [const(1)], a, b)
        assert exc.value.field == field

    def test_deriv_at_i_reference_values(self):
        # k-th derivative of xi^m / (xi + i)^p at xi = i
        assert deriv_at_i(1, 1, 2) == GaussRational(Fraction(1, 4))
        assert deriv_at_i(1, 2, 3) == GaussRational(Fraction(3, 8))
        assert deriv_at_i(0, 1, 0) == GaussRational(0, Fraction(-1, 2))

    def test_deriv_at_i_negative_power(self):
        # d/dxi xi (xi + i)^2 = (xi + i)^2 + 2 xi (xi + i), which is -8 at i
        assert deriv_at_i(1, -2, 1) == GaussRational(-8)

    @pytest.mark.parametrize(
        "args, field",
        [((-1, 1, 1), "m"), ((1, 1, -1), "k"), ((True, 1, 1), "m"),
         ((1, False, 1), "p"), ((1, 1, True), "k"), ((1.0, 1, 1), "m"),
         ((1, "2", 1), "p")],
        ids=["negative_m", "negative_k", "bool_m", "bool_p", "bool_k", "float_m",
             "string_p"],
    )
    def test_deriv_at_i_refuses_bad_arguments(self, args, field):
        # a negative m or k used to give the m = 0 or k = 0 value
        with pytest.raises(ValidationError) as exc:
            deriv_at_i(*args)
        assert exc.value.field == field

    def test_deriv_at_i_two_path_sample(self):
        alphabet = Alphabet([])
        for m, p, k in [(0, 1, 1), (1, 3, 2), (2, 4, 5), (3, 2, 3)]:
            num = [ParamPoly.zero(alphabet)] * m + [ParamPoly.one(alphabet)]
            f = HalfPlaneRational(alphabet, num, 0, p)
            direct = constant_value(eval_exact(f.deriv(k), GR_I))
            assert deriv_at_i(m, p, k) == direct


X = sympy.Symbol("x")
gauss = st.builds(
    lambda re, im, den: GaussRational(Fraction(re, den), Fraction(im, den)),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(1, 4),
)


def to_sympy(value):
    """A constant ParamPoly or a GaussRational as an exact sympy number."""
    if isinstance(value, ParamPoly):
        value = constant_value(value)
    return sympy.Rational(value.a, value.d) + sympy.I * sympy.Rational(value.b, value.d)


class TestSympyOracle:
    """Numeric half-plane rationals against sympy's partial fractions over
    Q(i) and its residue at +i."""

    # sympy takes about 0.1 s per example here
    @settings(max_examples=20)
    @given(
        st.lists(gauss, min_size=1, max_size=5), st.integers(0, 3), st.integers(0, 3)
    )
    def test_partial_fractions_and_integral(self, num, a, b):
        f = HalfPlaneRational(AL, [const(c) for c in num], a, b)
        den = (X - sympy.I) ** a * (X + sympy.I) ** b
        expr = sum(to_sympy(c) * X**k for k, c in enumerate(num)) / den

        expected = {sympy.I: {}, -sympy.I: {}}
        expected_poly = sympy.Integer(0)
        for term in sympy.Add.make_args(sympy.apart(expr, X, gaussian=True)):
            coeff, dep = term.as_independent(X, as_Add=False)
            base, exp = dep.as_base_exp()
            if exp < 0:
                expected[-(base - X)][-exp] = sympy.expand(coeff)
            else:
                expected_poly += term

        plus, minus, poly = f.partial_fractions()
        for pole, got in ((sympy.I, plus), (-sympy.I, minus)):
            got = {k: to_sympy(c) for k, c in enumerate(got, start=1)}
            assert {k: c for k, c in got.items() if c != 0} == expected[pole]
        got_poly = sum(to_sympy(c) * X**k for k, c in enumerate(poly))
        assert sympy.expand(got_poly - expected_poly) == 0

        # the same poles under the numerator cut to an integrable degree
        integrable = num[: max(a + b - 1, 0)]
        g = HalfPlaneRational(AL, [const(c) for c in integrable], a, b)
        expr = sum(to_sympy(c) * X**k for k, c in enumerate(integrable)) / den
        residue = sympy.residue(expr, X, sympy.I)
        assert to_sympy(g.real_line_integral()) == sympy.expand(2 * sympy.I * residue)


I = sympy.I


def from_sympy(value):
    """An exact sympy number with rational parts as a GaussRational."""
    re, im = sympy.re(value), sympy.im(value)
    return GaussRational(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def sympy_of(f):
    """A numeric HalfPlaneRational summed from its partial fractions."""
    plus, minus, poly = f.partial_fractions()
    return (
        sum(to_sympy(c) / (X - I) ** k for k, c in enumerate(plus, start=1))
        + sum(to_sympy(c) / (X + I) ** k for k, c in enumerate(minus, start=1))
        + sum(to_sympy(c) * X**k for k, c in enumerate(poly))
    )


@st.composite
def rationals(draw):
    """(f, expr): N / ((xi - i)^a (xi + i)^b) as a HalfPlaneRational and in
    sympy, N carrying factors xi -+ i that may cancel against the poles."""
    base = draw(st.lists(gauss, min_size=1, max_size=4))
    num = sum(to_sympy(c) * X**k for k, c in enumerate(base))
    num *= (X - I) ** draw(st.integers(0, 2)) * (X + I) ** draw(st.integers(0, 2))
    num = sympy.expand(num)
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    coeffs = [] if num == 0 else sympy.Poly(num, X).all_coeffs()[::-1]
    f = HalfPlaneRational(AL, [const(from_sympy(c)) for c in coeffs], a, b)
    return f, num / ((X - I) ** a * (X + I) ** b)


class TestNormalFormProperties:
    """The partial-fraction normal form against sympy's rational functions."""

    @settings(max_examples=25)
    @given(rationals())
    def test_rebuild_is_the_cancelled_form(self, f_expr):
        f, expr = f_expr
        p, q = sympy.fraction(sympy.cancel(expr))
        lead = sympy.Poly(q, X).LC()
        p, q = sympy.expand(p / lead), sympy.expand(q / lead)
        got = sum(to_sympy(c) * X**k for k, c in enumerate(f.num))
        assert sympy.expand(got - p) == 0
        assert len(f.num) - 1 == (sympy.degree(p, X) if p != 0 else -1)
        assert sympy.expand((X - I) ** f.a * (X + I) ** f.b - q) == 0
        # integrable exactly when f = O(xi^-2)
        if p != 0 and sympy.degree(p, X) > sympy.degree(q, X) - 2:
            with pytest.raises(NotIntegrable):
                f.real_line_integral()
        else:
            f.real_line_integral()

    @settings(max_examples=15)
    @given(rationals(), rationals(), st.integers(0, 3))
    def test_product_and_derivative(self, f_expr, g_expr, k):
        (f, fe), (g, ge) = f_expr, g_expr
        for difference in (
            sympy_of(f * g) - fe * ge,
            sympy_of(f.deriv(k)) - sympy.diff(fe, X, k),
        ):
            assert sympy.expand(sympy.numer(sympy.together(difference))) == 0

    @settings(max_examples=25)
    @given(rationals())
    def test_projections_split_the_value(self, f_expr):
        f, _ = f_expr
        plus = f.pi_plus()
        assert plus.pi_plus() == plus
        _, minus, poly = f.partial_fractions()
        rest = HalfPlaneRational(AL, poly)
        for k, c in enumerate(minus, start=1):
            rest = rest + HalfPlaneRational(AL, [c], 0, k)
        assert rest.pi_plus().is_zero()
        assert plus + rest == f


class TestCaseIntegrands:
    @pytest.mark.parametrize("nbar", [2, 4, 6])
    def test_integrals_match_sympy_residue(self, nbar):
        # the traced integrands of the boundary cases, at a random point
        rng = random.Random(nbar)
        for cid in CASE_IDS:
            f = boundary_case(cid, nbar).integrand
            assignment = rand_assignment(f.alphabet, rng)
            num = sum(to_sympy(poly_eval(c, assignment)) * X**k for k, c in enumerate(f.num))
            expr = num / ((X - I) ** f.a * (X + I) ** f.b)
            expected = 2 * I * sympy.residue(expr, X, I)
            got = to_sympy(poly_eval(f.real_line_integral(), assignment))
            assert sympy.expand(got - expected) == 0
