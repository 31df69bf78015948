"""Exact rational-function calculus in the normal covariable.

HalfPlaneRational is N(xi) / ((xi - i)^a (xi + i)^b) with ParamPoly
coefficients in N.  Everything downstream of the sphere restriction lives in
this type: partial fractions over the two poles, the upper/lower projection,
exact derivatives, and real-line integrals by residue.  Integrals carrying a
factor of pi are returned as exact coefficients of pi.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlphabetMismatch, NonCanonicalInput, NotIntegrable
from .exact import GR_I, GR_ONE, GaussRational, ParamPoly

_TWO_I = GaussRational(0, 2)


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _padd(p, q):
    out = list(p) + [None] * max(0, len(q) - len(p))
    for k in range(len(out)):
        if out[k] is None:
            out[k] = q[k]
        elif k < len(q):
            out[k] = out[k] + q[k]
    return _trim(out)


def _pmul(p, q):
    if not p or not q:
        return []
    out = [None] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            t = a * b
            out[i + j] = t if out[i + j] is None else out[i + j] + t
    return _trim(out)


def _pscale(p, s):
    return _trim([c * s for c in p])


def _pderiv(p):
    return _trim([p[k] * GaussRational(k) for k in range(1, len(p))])


def _peval(p, x):
    """Horner evaluation at a GaussRational point; ParamPoly result."""
    if not p:
        return None
    acc = p[-1] * GaussRational(1)
    for c in reversed(p[:-1]):
        acc = acc * x + c
    return acc


def _linear_power(root, k, one):
    """(xi - root)^k as a coefficient list."""
    out = [one]
    lin = [one * (-root), one]
    for _ in range(k):
        out = _pmul(out, lin)
    return out


class HalfPlaneRational:
    """N(xi) / ((xi - i)^a (xi + i)^b), canonical and immutable."""

    __slots__ = ("alphabet", "num", "a", "b")

    def __init__(self, alphabet, num, a=0, b=0):
        if a < 0 or b < 0:
            raise ValueError("pole orders must be nonnegative")
        self.alphabet = alphabet
        num = _trim([c if isinstance(c, ParamPoly) else ParamPoly.const(alphabet, c) for c in num])
        # cancel factors shared with the denominator at +i / -i
        while num and a > 0:
            val = _peval(num, GR_I)
            if val is None or not val.is_zero():
                break
            num = self._divide_linear(num, GR_I)
            a -= 1
        while num and b > 0:
            val = _peval(num, -GR_I)
            if val is None or not val.is_zero():
                break
            num = self._divide_linear(num, -GR_I)
            b -= 1
        if not num:
            a = b = 0
        self.num = tuple(num)
        self.a = a
        self.b = b

    @staticmethod
    def _divide_linear(p, root):
        """Exact synthetic division of p by (xi - root); remainder must vanish."""
        out = [None] * (len(p) - 1)
        carry = p[-1] * GaussRational(1)
        for k in range(len(p) - 2, -1, -1):
            out[k] = carry
            carry = p[k] + carry * root
        if not carry.is_zero():
            raise NonCanonicalInput("linear factor does not divide numerator")
        return _trim(out)

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet, [])

    @classmethod
    def const(cls, alphabet, value):
        return cls(alphabet, [ParamPoly.const(alphabet, value)])

    @classmethod
    def from_u_power(cls, alphabet, m, p):
        """xi^m * (1 + xi^2)^p with integer p of either sign."""
        one = ParamPoly.one(alphabet)
        zero = ParamPoly.zero(alphabet)
        xim = [zero] * m + [one]
        if p >= 0:
            upow = [one]
            for _ in range(p):
                upow = _pmul(upow, [one, zero, one])
            return cls(alphabet, _pmul(xim, upow))
        return cls(alphabet, xim, a=-p, b=-p)

    def _check(self, other):
        if other.alphabet != self.alphabet:
            raise AlphabetMismatch("operands over different alphabets")

    def is_zero(self):
        return not self.num

    def degree(self):
        return len(self.num) - 1 if self.num else -1

    def __add__(self, other):
        self._check(other)
        a = max(self.a, other.a)
        b = max(self.b, other.b)
        one = ParamPoly.one(self.alphabet)
        n1 = _pmul(
            list(self.num),
            _pmul(
                _linear_power(GR_I, a - self.a, one),
                _linear_power(-GR_I, b - self.b, one),
            ),
        )
        n2 = _pmul(
            list(other.num),
            _pmul(
                _linear_power(GR_I, a - other.a, one),
                _linear_power(-GR_I, b - other.b, one),
            ),
        )
        return HalfPlaneRational(self.alphabet, _padd(n1, n2), a, b)

    def __neg__(self):
        out = HalfPlaneRational.__new__(HalfPlaneRational)
        out.alphabet = self.alphabet
        out.num = tuple(-c for c in self.num)
        out.a, out.b = self.a, self.b
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return HalfPlaneRational(
            self.alphabet,
            _pmul(list(self.num), list(other.num)),
            self.a + other.a,
            self.b + other.b,
        )

    def scale(self, factor):
        if not isinstance(factor, ParamPoly):
            factor = ParamPoly.const(self.alphabet, factor)
        return HalfPlaneRational(
            self.alphabet, _pscale(list(self.num), factor), self.a, self.b
        )

    def __eq__(self, other):
        if not isinstance(other, HalfPlaneRational):
            return NotImplemented
        return (self.num, self.a, self.b) == (other.num, other.a, other.b)

    def deriv(self, k=1):
        """Exact k-th derivative in xi."""
        out = self
        for _ in range(k):
            out = out._deriv1()
        return out

    def _deriv1(self):
        n = list(self.num)
        if self.a == 0 and self.b == 0:
            return HalfPlaneRational(self.alphabet, _pderiv(n))
        one = ParamPoly.one(self.alphabet)
        # d/dxi [N / ((xi-i)^a (xi+i)^b)]
        #   = [N' (xi-i)(xi+i) - N (a(xi+i) + b(xi-i))] / ((xi-i)^{a+1}(xi+i)^{b+1})
        t1 = _pmul(_pderiv(n), [one, ParamPoly.zero(self.alphabet), one])
        lin = [
            ParamPoly.const(self.alphabet, GaussRational(0, self.a - self.b)),
            ParamPoly.const(self.alphabet, GaussRational(self.a + self.b)),
        ]
        t2 = _pscale(_pmul(n, lin), ParamPoly.const(self.alphabet, GaussRational(-1)))
        return HalfPlaneRational(self.alphabet, _padd(t1, t2), self.a + 1, self.b + 1)

    def _long_division(self):
        """Split off the polynomial part; remainder degree < a + b."""
        one = ParamPoly.one(self.alphabet)
        den = _pmul(_linear_power(GR_I, self.a, one), _linear_power(-GR_I, self.b, one))
        n = list(self.num)
        dd = len(den) - 1
        quot = []
        while len(n) - 1 >= dd and n:
            shift = len(n) - 1 - dd
            lead = n[-1]
            quot = _padd(quot, [ParamPoly.zero(self.alphabet)] * shift + [lead])
            sub = _pscale([ParamPoly.zero(self.alphabet)] * shift + list(den), lead)
            n = _padd(n, _pscale(sub, ParamPoly.const(self.alphabet, GaussRational(-1))))
            if len(n) - 1 == len(den) - 1 + shift:
                n = n[: len(den) - 1 + shift]  # guard exact cancellation
        return quot, n

    def partial_fractions(self):
        """Decompose into pole terms at +i, pole terms at -i, polynomial part.

        Returns (plus, minus, poly) where plus[k-1] is the ParamPoly
        coefficient of 1/(xi - i)^k, minus[k-1] of 1/(xi + i)^k, and poly is
        a coefficient list.  Recombination reproduces the value exactly.
        """
        if self.num and self.a > 0:
            v = _peval(list(self.num), GR_I)
            if v is not None and v.is_zero():
                raise NonCanonicalInput("numerator vanishes at +i")
        if self.num and self.b > 0:
            v = _peval(list(self.num), -GR_I)
            if v is not None and v.is_zero():
                raise NonCanonicalInput("numerator vanishes at -i")
        poly, rem = self._long_division()
        plus = self._pole_coeffs(rem, GR_I, self.a, -GR_I, self.b)
        minus = self._pole_coeffs(rem, -GR_I, self.b, GR_I, self.a)
        return plus, minus, poly

    def _pole_coeffs(self, rem, pole, order, other_pole, other_order):
        """Taylor coefficients of rem/(xi - other_pole)^q around the pole."""
        if order == 0:
            return []
        zero = ParamPoly.zero(self.alphabet)
        # g represented as (P, e) meaning P(xi) / (xi - other_pole)^e
        p, e = list(rem), other_order
        coeffs = []  # m-th derivative of g at the pole, divided by m!
        fact = 1
        for m in range(order):
            val = _peval(p, pole)
            if val is None:
                val = zero
            denom = (pole - other_pole) ** e if e else GR_ONE
            coeffs.append(val * denom.inverse() * GaussRational(Fraction(1, fact)))
            # differentiate: (P, e) -> (P'(xi - other_pole) - e P, e + 1)
            one = ParamPoly.one(self.alphabet)
            p = _padd(
                _pmul(_pderiv(p), [one * (-other_pole), one]),
                _pscale(p, ParamPoly.const(self.alphabet, GaussRational(-e))),
            )
            e += 1
            fact *= m + 1
        # coeffs[m] multiplies (xi - pole)^m; the pole coefficient of order
        # k is coeffs[order - k]
        return [coeffs[order - k] for k in range(1, order + 1)]

    def pi_plus(self):
        """Projection onto the part with poles at +i only."""
        plus, _, _ = self.partial_fractions()
        if not plus:
            return HalfPlaneRational.zero(self.alphabet)
        one = ParamPoly.one(self.alphabet)
        a = len(plus)
        num = []
        for k, c in enumerate(plus, start=1):
            num = _padd(num, _pscale(_linear_power(GR_I, a - k, one), c))
        return HalfPlaneRational(self.alphabet, num, a, 0)

    def pi_prime(self):
        """i times the residue at +i (a ParamPoly)."""
        plus, _, _ = self.partial_fractions()
        if not plus:
            return ParamPoly.zero(self.alphabet)
        return plus[0] * GR_I

    def residue_at_plus_i(self):
        plus, _, _ = self.partial_fractions()
        if not plus:
            return ParamPoly.zero(self.alphabet)
        return plus[0]

    def real_line_integral(self):
        """Exact integral over the real line, as a coefficient of pi.

        Closed in the upper half-plane: the value is 2 pi i times the residue
        at +i; the returned ParamPoly multiplies pi.
        """
        if self.is_zero():
            return ParamPoly.zero(self.alphabet)
        if self.degree() > self.a + self.b - 2:
            raise NotIntegrable(
                f"numerator degree {self.degree()} too large for pole orders "
                f"({self.a}, {self.b})"
            )
        if self.a == 0:
            return ParamPoly.zero(self.alphabet)
        return self.residue_at_plus_i() * _TWO_I

    def eval_exact(self, x):
        """Exact value at a GaussRational point away from the poles."""
        n = _peval(list(self.num), x)
        if n is None:
            return ParamPoly.zero(self.alphabet)
        d = ((x - GR_I) ** self.a) * ((x + GR_I) ** self.b)
        return n * d.inverse()

    def numeric_fn(self, assignment):
        """Float-valued callable for quadrature cross-checks."""
        coeffs = [c.eval(assignment).to_complex() for c in self.num]
        a, b = self.a, self.b

        def f(x):
            num = 0j
            for c in reversed(coeffs):
                num = num * x + c
            return num / ((x - 1j) ** a * (x + 1j) ** b)

        return f

    def __str__(self):
        num = "0" if not self.num else " + ".join(
            f"({c})*xi^{k}" if k else f"({c})"
            for k, c in enumerate(self.num)
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
    """
    poly = [GaussRational(0)] * m + [GR_ONE]
    e = p
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
