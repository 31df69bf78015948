"""Half-plane rational calculus: canonical forms, projections, residues."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ncresidue.exact import GR_I, GR_ONE, Alphabet, GaussRational, ParamPoly
from ncresidue.errors import NotIntegrable
from ncresidue.halfplane import HalfPlaneRational, deriv_at_i
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
        assert [p.constant_value() for p in f.num] == [
            GaussRational(0),
            GaussRational(0),
            GR_ONE,
            GaussRational(0),
            GR_ONE,
        ]

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
        exact = f.eval_exact(GaussRational(x)).eval(assignment).to_complex()
        numeric = f.numeric_fn(assignment)(float(x))
        assert abs(exact - numeric) < 1e-12


class TestProjections:
    def test_pi_plus_of_u_inverse(self):
        # pi+ (1/(1+xi^2)) = -i/2 * 1/(xi - i)
        f = HalfPlaneRational.from_u_power(AL, 0, -1)
        p = f.pi_plus()
        assert (p.a, p.b) == (1, 0)
        assert p.num[0].constant_value() == GaussRational(0, Fraction(-1, 2))

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

    def test_pi_prime_is_residue_scaled(self):
        f = HalfPlaneRational.from_u_power(AL, 0, -1)
        assert f.pi_prime() == ParamPoly.const(AL, GR_I) * f.residue_at_plus_i()


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

    def test_deriv_at_i_reference_values(self):
        # k-th derivative of xi^m / (xi + i)^p at xi = i
        assert deriv_at_i(1, 1, 2) == GaussRational(Fraction(1, 4))
        assert deriv_at_i(1, 2, 3) == GaussRational(Fraction(3, 8))
        assert deriv_at_i(0, 1, 0) == GaussRational(0, Fraction(-1, 2))

    def test_deriv_at_i_two_path_sample(self):
        alphabet = Alphabet([])
        for m, p, k in [(0, 1, 1), (1, 3, 2), (2, 4, 5), (3, 2, 3)]:
            num = [ParamPoly.zero(alphabet)] * m + [ParamPoly.one(alphabet)]
            f = HalfPlaneRational(alphabet, num, 0, p)
            direct = f.deriv(k).eval_exact(GR_I).constant_value()
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
        value = value.constant_value()
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
