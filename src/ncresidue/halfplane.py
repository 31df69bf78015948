"""Exact rational-function calculus in the normal covariable.

HalfPlaneRational is a rational function of xi with poles at most at +i and
-i, held in partial-fraction normal form

    sum_k c_k (xi - i)^-k  +  sum_k d_k (xi + i)^-k  +  sum_k e_k xi^k

with ParamPoly coefficients.  Everything downstream of the sphere
restriction lives in this type: the upper-half-plane projection pi+ keeps
the terms at +i, the residue at +i is c_1, derivatives act term by term,
and real-line integrals are 2 pi i c_1, returned as exact coefficients of
pi.  Products expand through one cached closed form of
xi^m (xi - i)^-a (xi + i)^-b.  The printed form N / ((xi - i)^a (xi + i)^b)
is rebuilt from the terms only for display.

Every pole, power and derivative order goes through the engine's one integer
check, errors.check_int, with nonnegative=True except for the power p of
from_u_power and deriv_at_i: a bool, a non-int or a negative order raises
ValidationError naming a, b, m, p or k.  A coefficient must be over the
value's alphabet (AlphabetMismatch otherwise).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, prod

from .errors import AlphabetMismatch, NotIntegrable, check_int
from .exact import GR_I, GR_ONE, GaussRational, ParamPoly, SparseTerms, summed_terms

_TWO_I = GaussRational(0, 2)


def _orders(*keys):
    """(m, a, b) of a product of keys, as xi^m (xi - i)^-a (xi + i)^-b."""
    out = [0, 0, 0]
    for sign, k in keys:
        out[sign] += k  # sign 0, 1, -1 indexes m, a, b
    return tuple(out)


@lru_cache(maxsize=None)
def _expansion(m, a, b):
    """xi^m (xi - i)^-a (xi + i)^-b in partial fractions: ((key, scalar), ...).

    Around the pole r = +-i the other factor (xi - r + 2r)^-q has the Taylor
    coefficients (-1)^j C(q + j - 1, j) (2r)^-(q + j); each factor xi then
    maps (xi - r)^-k to (xi - r)^-(k - 1) + r (xi - r)^-k.
    """
    terms = {} if a or b else {(0, 0): GR_ONE}
    for sign, order, other in ((1, a, b), (-1, b, a)):
        if order and not other:
            terms[(sign, order)] = GR_ONE
        elif order:
            inv = GaussRational(0, 2 * sign).inverse()
            for j in range(order):
                c = GaussRational((-1) ** j * comb(other + j - 1, j))
                terms[(sign, order - j)] = c * inv ** (other + j)
    for _ in range(m):
        pairs = []
        for (sign, k), c in terms.items():
            if not sign:
                pairs.append(((0, k + 1), c))
                continue
            pairs.append(((sign, k - 1) if k > 1 else (0, 0), c))
            pairs.append(((sign, k), c * GaussRational(0, sign)))
        terms = summed_terms(pairs)
    return tuple(terms.items())


@lru_cache(maxsize=None)
def _denominator(p, q):
    """Coefficients of (xi - i)^p (xi + i)^q, constant term first."""
    return tuple(
        GR_I ** (p + q - j)
        * sum(
            (-1) ** (p - l) * comb(p, l) * comb(q, j - l) for l in range(min(j, p) + 1)
        )
        for j in range(p + q + 1)
    )


def _hpr(alphabet, terms):
    out = HalfPlaneRational.__new__(HalfPlaneRational)
    out.alphabet = alphabet
    out.terms = terms
    return out


def _expanded(pairs):
    """Terms of the sum of c xi^m (xi - i)^-a (xi + i)^-b over ((m, a, b), c)."""
    return summed_terms(
        (key, c * g) for orders, c in pairs for key, g in _expansion(*orders)
    )


class HalfPlaneRational(SparseTerms):
    """Rational function of xi in partial-fraction normal form, immutable.

    Terms map (1, k) to the coefficient of (xi - i)^-k, (-1, k) to that of
    (xi + i)^-k and (0, k) to that of xi^k.  The read-only num, a and b give
    the canonical N / ((xi - i)^a (xi + i)^b), a and b the top pole orders.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, num, a=0, b=0):
        """N / ((xi - i)^a (xi + i)^b) for the coefficient list N of xi^0, xi^1, ..."""
        a, b = check_int("a", a, nonnegative=True), check_int("b", b, nonnegative=True)
        num = [c if isinstance(c, ParamPoly) else ParamPoly.const(alphabet, c) for c in num]
        if any(c.alphabet is not alphabet and c.alphabet != alphabet for c in num):
            raise AlphabetMismatch("coefficient over another alphabet")
        self.alphabet = alphabet
        self.terms = _expanded(((k, a, b), c) for k, c in enumerate(num))

    @classmethod
    def zero(cls, alphabet):
        return _hpr(alphabet, {})

    @classmethod
    def from_u_power(cls, alphabet, m, p):
        """xi^m * (1 + xi^2)^p with integer m >= 0 and p of either sign."""
        m = check_int("m", m, nonnegative=True)
        check_int("p", p)
        if p < 0:
            return _hpr(alphabet, {
                key: ParamPoly.const(alphabet, g) for key, g in _expansion(m, -p, -p)
            })
        return _hpr(alphabet, {
            (0, m + 2 * j): ParamPoly.const(alphabet, comb(p, j)) for j in range(p + 1)
        })

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self._like(_expanded(
            (_orders(k1, k2), c1 * c2)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
        ))

    def _top(self, sign):
        return max((k for s, k in self.terms if s == sign), default=0)

    @property
    def a(self):
        return self._top(1)

    @property
    def b(self):
        return self._top(-1)

    @property
    def num(self):
        """Numerator coefficients of the canonical form, constant term first."""
        a, b = self.a, self.b
        pairs = []
        for (sign, k), c in self.terms.items():
            # the term times (xi - i)^a (xi + i)^b
            shift, p, q = (
                (k, a, b) if not sign else (0, a - k, b) if sign == 1 else (0, a, b - k)
            )
            pairs.extend((shift + j, c * g) for j, g in enumerate(_denominator(p, q)))
        coeffs = summed_terms(pairs)
        zero = ParamPoly.zero(self.alphabet)
        return tuple(coeffs.get(j, zero) for j in range(max(coeffs, default=-1) + 1))

    def deriv(self, k=1):
        """Exact k-th derivative in xi."""
        k = check_int("k", k, nonnegative=True)
        terms = {}
        for (sign, e), c in self.terms.items():
            if sign:
                terms[(sign, e + k)] = c * ((-1) ** k * prod(range(e, e + k)))
            elif e >= k:
                terms[(0, e - k)] = c * prod(range(e - k + 1, e + 1))
        return self._like(terms)

    def partial_fractions(self):
        """Decompose into pole terms at +i, pole terms at -i, polynomial part.

        Returns (plus, minus, poly) where plus[k-1] is the ParamPoly
        coefficient of 1/(xi - i)^k, minus[k-1] of 1/(xi + i)^k, and poly is
        a coefficient list.  Recombination reproduces the value exactly.
        """
        zero = ParamPoly.zero(self.alphabet)
        terms = self.terms
        poly_top = max((k for s, k in terms if not s), default=-1)
        return (
            [terms.get((1, k), zero) for k in range(1, self.a + 1)],
            [terms.get((-1, k), zero) for k in range(1, self.b + 1)],
            [terms.get((0, k), zero) for k in range(poly_top + 1)],
        )

    def pi_plus(self):
        """Projection onto the part with poles at +i only."""
        return self._like({key: c for key, c in self.terms.items() if key[0] == 1})

    def residue_at_plus_i(self):
        return self.terms.get((1, 1), ParamPoly.zero(self.alphabet))

    def real_line_integral(self):
        """Exact integral over the real line, as a coefficient of pi.

        Integrable means f = O(xi^-2): no polynomial part and opposite
        residues at +i and -i.  Closed in the upper half-plane, the value is
        2 pi i times the residue at +i; the returned ParamPoly multiplies pi.
        """
        residue = self.residue_at_plus_i()
        if any(not s for s, _ in self.terms) or not (
            residue + self.terms.get((-1, 1), 0)
        ).is_zero():
            raise NotIntegrable(
                f"numerator degree {len(self.num) - 1} too large for pole orders "
                f"({self.a}, {self.b})"
            )
        return residue * _TWO_I

    def __str__(self):
        coeffs = self.num
        num = "0" if not coeffs else " + ".join(
            f"({c})*xi^{k}" if k else f"({c})"
            for k, c in enumerate(coeffs)
            if not c.is_zero()
        )
        den = []
        if self.a:
            den.append(f"(xi-i)^{self.a}")
        if self.b:
            den.append(f"(xi+i)^{self.b}")
        return f"[{num}] / {'*'.join(den)}" if den else f"[{num}]"

    def __repr__(self):
        return f"HalfPlaneRational({self})"


def deriv_at_i(m, p, k):
    """k-th derivative of xi^m / (xi + i)^p at xi = i, exactly.

    Independent of the HalfPlaneRational machinery: works on plain
    GaussRational coefficient lists via the representation P(xi)/(xi+i)^e.
    m and k are ints >= 0 and p any int; anything else, a bool too, raises
    ValidationError.
    """
    check_int("m", m, nonnegative=True)
    check_int("k", k, nonnegative=True)
    poly = [GaussRational(0)] * m + [GR_ONE]
    e = check_int("p", p)
    for _ in range(k):
        dp = [poly[j] * GaussRational(j) for j in range(1, len(poly))]
        # dp * (xi + i)
        t1 = [GaussRational(0)] * (len(dp) + 1)
        for j, c in enumerate(dp):
            t1[j] = t1[j] + c * GR_I
            t1[j + 1] = t1[j + 1] + c
        out = [GaussRational(0)] * max(len(t1), len(poly))
        for j, c in enumerate(t1):
            out[j] = out[j] + c
        for j, c in enumerate(poly):
            out[j] = out[j] - c * GaussRational(e)
        while out and out[-1].is_zero():
            out.pop()
        poly = out
        e += 1
    # evaluate at i
    val = GaussRational(0)
    for c in reversed(poly):
        val = val * GR_I + c
    return val / (_TWO_I ** e) if e else val
