"""Exact scalar and parameter-polynomial arithmetic.

Two layers: GaussRational is the scalar field (complex numbers with exact
rational real and imaginary parts), ParamPoly is a sparse multivariate
polynomial over GaussRational in a fixed alphabet of named parameters.
No floating point anywhere; floats only appear when a caller explicitly
asks for a numeric approximation via to_complex().
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AlphabetMismatch, DivisionByZero, UnboundParameter


class GaussRational:
    """Exact complex number a + b*i with rational a, b."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # Fractions are immutable: reuse them instead of re-wrapping
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def from_value(cls, v):
        if isinstance(v, GaussRational):
            return v
        if isinstance(v, (float, complex)):
            raise TypeError("refusing to build an exact scalar from a float")
        return cls(Fraction(v))

    def __add__(self, other):
        other = GaussRational.from_value(other)
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussRational.from_value(other)
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussRational.from_value(other) - self

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __mul__(self, other):
        other = GaussRational.from_value(other)
        # real or imaginary factors, the common case, need half the products
        if not other.im:
            return GaussRational(self.re * other.re, self.im * other.re)
        if not other.re:
            return GaussRational(-(self.im * other.im), self.re * other.im)
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def inverse(self):
        d = self.re * self.re + self.im * self.im
        if d == 0:
            raise DivisionByZero("inverse of zero")
        return GaussRational(self.re / d, -self.im / d)

    def __truediv__(self, other):
        return self * GaussRational.from_value(other).inverse()

    def __rtruediv__(self, other):
        return GaussRational.from_value(other) * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("integer exponent required")
        if k < 0:
            return self.inverse() ** (-k)
        out = GaussRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return GaussRational(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = GaussRational(other)
        if not isinstance(other, GaussRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def to_complex(self):
        return complex(self.re) + 1j * complex(self.im)

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        ims = "i" if mag == 1 else f"{mag}*i"
        return f"({self.re}{sign}{ims})"

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


class Alphabet:
    """Immutable, ordered set of parameter names fixed for a session."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names in alphabet")
        self.names = names
        self._index = {s: k for k, s in enumerate(names)}

    def __contains__(self, name):
        return name in self._index

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Alphabet({list(self.names)!r})"


def _coerce_scalar(v):
    if isinstance(v, GaussRational):
        return v
    if isinstance(v, (int, Fraction)):
        return GaussRational(v)
    return None


class ParamPoly:
    """Sparse multivariate polynomial over GaussRational.

    Terms map a monomial key -- a tuple of (name, exponent) pairs sorted by
    name, with positive exponents -- to a nonzero GaussRational coefficient.
    Values are immutable after construction.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms=None):
        self.alphabet = alphabet
        clean = {}
        for mono, coeff in (terms or {}).items():
            coeff = GaussRational.from_value(coeff)
            if coeff.is_zero():
                continue
            for name, exp in mono:
                if name not in alphabet:
                    raise AlphabetMismatch(f"parameter {name!r} not in alphabet")
                if exp <= 0:
                    raise ValueError("monomial exponents must be positive")
            clean[tuple(sorted(mono))] = coeff
        self.terms = clean

    @classmethod
    def const(cls, alphabet, value):
        value = GaussRational.from_value(value)
        return cls(alphabet, {(): value})

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet, {})

    @classmethod
    def one(cls, alphabet):
        return cls.const(alphabet, 1)

    @classmethod
    def var(cls, alphabet, name, exp=1):
        return cls(alphabet, {((name, exp),): GR_ONE})

    def _check(self, other):
        if isinstance(other, ParamPoly):
            if other.alphabet != self.alphabet:
                raise AlphabetMismatch("operands over different alphabets")
            return other
        s = _coerce_scalar(other)
        if s is None:
            return None
        return ParamPoly.const(self.alphabet, s)

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            acc = terms.get(mono)
            c = c if acc is None else acc + c
            if c.is_zero():
                terms.pop(mono, None)
            else:
                terms[mono] = c
        out = ParamPoly.__new__(ParamPoly)
        out.alphabet = self.alphabet
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = ParamPoly.__new__(ParamPoly)
        out.alphabet = self.alphabet
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        terms = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _merge_monomials(m1, m2)
                c = c1 * c2
                acc = terms.get(mono)
                c = c if acc is None else acc + c
                if c.is_zero():
                    terms.pop(mono, None)
                else:
                    terms[mono] = c
        out = ParamPoly.__new__(ParamPoly)
        out.alphabet = self.alphabet
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("nonnegative integer exponent required")
        out = ParamPoly.one(self.alphabet)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(m == () for m in self.terms)

    def constant_value(self):
        """The value of a constant polynomial (errors if non-constant)."""
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get((), GR_ZERO)

    def params(self):
        used = set()
        for mono in self.terms:
            for name, _ in mono:
                used.add(name)
        return used

    def coefficient(self, mono):
        """Coefficient of an exact monomial, given as ((name, exp), ...)."""
        return self.terms.get(tuple(sorted(mono)), GR_ZERO)

    def eval(self, assignment):
        """Exact substitution; assignment must cover every parameter used."""
        total = GR_ZERO
        for mono, coeff in self.terms.items():
            val = coeff
            for name, exp in mono:
                if name not in assignment:
                    raise UnboundParameter(name)
                val = val * GaussRational.from_value(assignment[name]) ** exp
            total = total + val
        return total

    def subs(self, partial):
        """Substitute some parameters, leaving the rest symbolic."""
        out = ParamPoly.zero(self.alphabet)
        for mono, coeff in self.terms.items():
            residual = []
            val = coeff
            for name, exp in mono:
                if name in partial:
                    val = val * GaussRational.from_value(partial[name]) ** exp
                else:
                    residual.append((name, exp))
            out = out + ParamPoly(self.alphabet, {tuple(residual): val})
        return out

    def __eq__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _sorted_terms(self):
        def key(item):
            mono, _ = item
            return (sum(e for _, e in mono), mono)

        return sorted(self.terms.items(), key=key)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self._sorted_terms():
            names = "*".join(
                name if exp == 1 else f"{name}^{exp}" for name, exp in mono
            )
            cs = str(coeff)
            if names:
                if coeff == GR_ONE:
                    parts.append(names)
                elif coeff == -GR_ONE:
                    parts.append(f"-{names}")
                else:
                    parts.append(f"{cs}*{names}")
            else:
                parts.append(cs)
        text = parts[0]
        for p in parts[1:]:
            text += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return text

    def __repr__(self):
        return f"ParamPoly({self})"


def _merge_monomials(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for name, exp in m2:
        exps[name] = exps.get(name, 0) + exp
    return tuple(sorted(exps.items()))


def gauss_arith(a, b, op):
    """Field arithmetic dispatcher on GaussRational values."""
    a = GaussRational.from_value(a)
    b = GaussRational.from_value(b)
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        if b.is_zero():
            raise DivisionByZero("division by zero")
        return a / b
    raise ValueError(f"unknown op {op!r}")


def poly_arith(p, q, op):
    """Ring arithmetic dispatcher on ParamPoly values."""
    if op == "add":
        return p + q
    if op == "sub":
        return p - q
    if op == "mul":
        return p * q
    raise ValueError(f"unknown op {op!r}")


def poly_eval(p, assignment):
    """Exact evaluation of a ParamPoly at a point."""
    return p.eval(assignment)
