"""Shared helpers for the test suite: random exact data and the
numeric-quadrature oracle for half-plane line integrals."""

import math
from fractions import Fraction

import pytest
from hypothesis import Phase, settings

from ncresidue.exact import Alphabet, GaussRational, ParamPoly
from ncresidue.oracle import numeric_fn, poly_eval, to_complex

# Property tests draw the same examples on every run, so tier-1 stays
# reproducible and its time bounded.
settings.register_profile(
    "ncresidue", derandomize=True, deadline=None, max_examples=60, database=None
)
settings.load_profile("ncresidue")
# The same examples without the shrink phase, for runs that only need to
# know whether a test fails (a mutant's run):
#   python -m pytest --hypothesis-profile=mutants ...
settings.register_profile(
    "mutants", settings.get_profile("ncresidue"),
    phases=[p for p in Phase if p is not Phase.shrink],
)


def rand_fraction(rng, span=6):
    """Random exact rational with small numerator and denominator."""
    return Fraction(rng.randint(-span, span), rng.randint(1, 4))


def rand_gauss(rng, span=6):
    return GaussRational(rand_fraction(rng, span), rand_fraction(rng, span))


def rand_assignment(alphabet, rng, span=6):
    """Full numeric assignment for every name in the alphabet."""
    return {name: rand_fraction(rng, span) for name in alphabet.names}


def rand_poly(alphabet, rng, nterms=3, max_deg=2):
    """Random sparse polynomial over a few alphabet names."""
    poly = ParamPoly.zero(alphabet)
    names = list(alphabet.names)
    for _ in range(nterms):
        term = ParamPoly.const(alphabet, rand_gauss(rng))
        for _ in range(rng.randint(0, max_deg)):
            term = term * ParamPoly.var(alphabet, rng.choice(names))
        poly = poly + term
    return poly


def cliffxi_scalars(cx):
    """Every scalar of a CliffXi, through its jet and polynomial levels."""
    return [g for xe in cx.terms.values() for p in xe.terms.values() for g in p.terms.values()]


def quad_line_integral(fn, limit=400):
    """Numeric integral of fn over the real line (complex-valued fn)."""
    from scipy.integrate import quad

    re, _ = quad(lambda x: fn(x).real, -math.inf, math.inf, limit=limit)
    im, _ = quad(lambda x: fn(x).imag, -math.inf, math.inf, limit=limit)
    return complex(re, im)


def assert_integral_matches_quadrature(f, assignment, tol=1e-8):
    """Exact pi-coefficient of the line integral vs scipy quadrature."""
    exact = to_complex(poly_eval(f.real_line_integral(), assignment)) * math.pi
    numeric = quad_line_integral(numeric_fn(f, assignment))
    assert abs(exact - numeric) < tol, (
        f"exact {exact} vs quadrature {numeric} (|diff| = {abs(exact - numeric)})"
    )


@pytest.fixture
def small_alphabet():
    return Alphabet(["a", "b", "c"])
