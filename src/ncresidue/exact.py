"""Exact scalar and parameter-polynomial arithmetic, and the sparse-term core.

Two layers: GaussRational is the scalar field (complex numbers with exact
rational real and imaginary parts), ParamPoly is a sparse multivariate
polynomial over GaussRational in a fixed alphabet of named parameters.
No floating point anywhere; floats only appear in the quadrature
cross-checks' approximations (oracle.to_complex).

SparseTerms is the shared core of the engine's sparse algebras: ParamPoly,
the jet ring (symbols.XiExpr), the half-plane rationals
(halfplane.HalfPlaneRational) and the one blade algebra clifford.Blades,
whose subclasses are the Clifford multivectors (clifford.CliffordElement),
the Clifford-valued symbols (symbols.CliffXi) and their sphere restrictions
(boundary.SphereSymbol).  It holds their sum, the n-ary sum plus (one
map for many values), negation, scaling, term-wise maps, collection of
(key, coefficient) pairs and the all-pairs product, which is the `*` of
every algebra but the half-plane rationals (their key products expand into
several terms, so they supply their own product); each algebra supplies
its key product.  The two product-heavy callers that the workloads time
sum their term products instead as Gaussian integers in one kernel,
_add_products, on int key ids of a KeyTable that lives for one call, over
one denominator per operand and per sum, each sum reduced once where it
becomes a GaussRational: the sums of Clifford factor-pair products of B
and E - B (clifford.CliffordElement._products_sum) and the symbol recursions
(symbols.compose_symbols and symbols.invert_symbol), both once per blade
pair through clifford.add_blade_products, and all three with the cyclic
collector paused (collector_paused).  The core's product is the kernel's
test oracle.  The matrix oracle oracle.SpinorMatrix stays
outside, so that it remains independent of what it checks.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from functools import wraps
from math import gcd
from types import MappingProxyType

from .errors import AlphabetMismatch, DimMismatch, DivisionByZero


class GaussRational:
    """Exact complex number (a + b*i) / d with integers a, b, d.

    The triple is kept in normal form: d > 0 and gcd(a, b, d) = 1, so equal
    values have equal triples (zero is (0, 0, 1)).  Every operation divides
    by one gcd, skipped when the denominator is 1.  re and im give the real
    and imaginary parts as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        if isinstance(re, (float, complex)) or isinstance(im, (float, complex)):
            raise TypeError("refusing to build an exact scalar from a float")
        re, im = Fraction(re), Fraction(im)
        d1, d2 = re.denominator, im.denominator
        d = d1 * d2 // gcd(d1, d2)
        self.a = re.numerator * (d // d1)
        self.b = im.numerator * (d // d2)
        self.d = d

    @classmethod
    def from_value(cls, v):
        if isinstance(v, GaussRational):
            return v
        if type(v) is int:
            return _make(v, 0, 1)
        if type(v) is Fraction:
            return _make(v.numerator, 0, v.denominator)
        if isinstance(v, (float, complex)):
            raise TypeError("refusing to build an exact scalar from a float")
        return cls(v)

    @property
    def re(self):
        return Fraction(self.a, self.d)

    @property
    def im(self):
        return Fraction(self.b, self.d)

    def __add__(self, other):
        if other.__class__ is not GaussRational:
            other = _coerce_scalar(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a + other.a, self.b + other.b, d1)
        return _reduced(self.a * d2 + other.a * d1, self.b * d2 + other.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussRational:
            other = _coerce_scalar(other)
            if other is None:
                return NotImplemented
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _reduced(self.a - other.a, self.b - other.b, d1)
        return _reduced(self.a * d2 - other.a * d1, self.b * d2 - other.b * d1, d1 * d2)

    def __rsub__(self, other):
        other = _coerce_scalar(other)
        return NotImplemented if other is None else other - self

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other):
        if other.__class__ is not GaussRational:
            other = _coerce_scalar(other)
            if other is None:
                return NotImplemented
        a1, b1 = self.a, self.b
        a2, b2 = other.a, other.b
        # real or imaginary factors, the common case, need half the products
        if not b2:
            return _reduced(a1 * a2, b1 * a2, self.d * other.d)
        if not a2:
            return _reduced(-b1 * b2, a1 * b2, self.d * other.d)
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self):
        a, b, d = self.a, self.b, self.d
        n = a * a + b * b
        if not n:
            raise DivisionByZero("inverse of zero")
        return _reduced(d * a, -d * b, n)

    def __truediv__(self, other):
        if other.__class__ is not GaussRational:
            other = _coerce_scalar(other)
            if other is None:
                return NotImplemented
        a1, b1 = self.a, self.b
        a2, b2, d2 = other.a, other.b, other.d
        n = a2 * a2 + b2 * b2
        if not n:
            raise DivisionByZero("inverse of zero")
        # (a1 + b1 i) / d1 * d2 (a2 - b2 i) / (a2^2 + b2^2)
        return _reduced(
            (a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2, self.d * n
        )

    def __rtruediv__(self, other):
        other = _coerce_scalar(other)
        return NotImplemented if other is None else other / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise TypeError("integer exponent required")
        if k < 0:
            return self.inverse() ** (-k)
        out, base = None, self  # from the lowest set bit, squaring while bits remain
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return GR_ONE if out is None else out
            base = base * base

    def conjugate(self):
        return _make(self.a, -self.b, self.d)

    def is_zero(self):
        return not self.a and not self.b

    def __eq__(self, other):
        if other.__class__ is not GaussRational:
            if isinstance(other, (int, Fraction)):
                other = GaussRational.from_value(other)
            elif not isinstance(other, GaussRational):
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        # a real value equals its int or Fraction, so it hashes as one
        return hash((self.re, self.im)) if self.b else hash(self.re)

    def __str__(self):
        a, b, d = self.a, self.b, self.d
        if not b:
            return _part(a, d)
        ims = "i" if abs(b) == d else f"{_part(abs(b), d)}*i"
        if not a:
            return ims if b > 0 else f"-{ims}"
        return f"({_part(a, d)}{'+' if b > 0 else '-'}{ims})"

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _part(x, d):
    """x / d for d > 0 as str(Fraction(x, d)) writes it, with no Fraction built."""
    g = gcd(x, d)
    return str(x // g) if g == d else f"{x // g}/{d // g}"


def _make(a, b, d):
    """GaussRational from a triple already in normal form."""
    z = _new(GaussRational)
    z.a, z.b, z.d = a, b, d
    return z


def _reduced(a, b, d):
    """GaussRational (a + b*i) / d for d > 0, brought to normal form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    z = _new(GaussRational)
    z.a, z.b, z.d = a, b, d
    return z


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
        return self is other or (
            isinstance(other, Alphabet) and self.names == other.names
        )

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Alphabet({list(self.names)!r})"


def _coerce_scalar(v):
    if isinstance(v, (GaussRational, int, Fraction)):
        return GaussRational.from_value(v)
    return None


def summed_terms(pairs):
    """Clean map (zeros dropped) holding the sum of (key, coefficient) pairs."""
    terms = {}
    for key, c in pairs:
        acc = terms.get(key)
        terms[key] = c if acc is None else acc + c
    return {k: c for k, c in terms.items() if not c.is_zero()}


def add_terms(terms, pairs, negate=False):
    """Add (key, nonzero coefficient) pairs into the clean map terms, in
    place, or with negate subtract them: a coefficient is negated only for
    a key that terms does not hold yet.  Returns terms."""
    for key, c in pairs:
        acc = terms.get(key)
        if acc is None:
            terms[key] = -c if negate else c
        else:
            c = acc - c if negate else acc + c
            if c.is_zero():
                del terms[key]
            else:
                terms[key] = c
    return terms


class SparseTerms:
    """Sparse map `terms` from keys to nonzero coefficients, with the ring
    operations of every algebra of the engine, written once.

    A subclass supplies the key product _key_mul(k1, k2) -> (key, sign),
    sign being +1 or -1.  _like(terms), an unvalidated value of its own kind
    over an already clean map, and _check(other), which returns the operand
    as a value of its own kind, None for an operand it does not handle, or
    raises on a mismatched one, are written here for values that carry only
    an alphabet; a subclass with more (a dimension, scalar operands)
    overrides them.
    """

    __slots__ = ()

    def _like(self, terms):
        cls = type(self)
        out = cls.__new__(cls)
        out.alphabet, out.terms = self.alphabet, terms
        return out

    def _check(self, other):
        if not isinstance(other, type(self)):
            return None
        if other.alphabet is not self.alphabet and other.alphabet != self.alphabet:
            raise AlphabetMismatch("operands over different alphabets")
        return other

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self._like(add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self._like(add_terms(dict(self.terms), other.terms.items(), True))

    def plus(self, values):
        """self plus every value of values, summed in one map: a copy of self's terms."""
        terms = dict(self.terms)
        for v in values:
            add_terms(terms, v.terms.items())
        return self._like(terms)

    def __mul__(self, other):
        other = self._check(other)
        if other is None:
            return NotImplemented
        return self._product(other)

    def __eq__(self, other):
        # values over different alphabets or dimensions are unequal, so that
        # dicts and sets may mix them; arithmetic on them still raises
        try:
            other = self._check(other)
        except (AlphabetMismatch, DimMismatch):
            return False
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def scale(self, factor):
        """Multiply every coefficient by factor."""
        return self._like(
            {k: p for k, c in self.terms.items() if not (p := c * factor).is_zero()}
        )

    def _map(self, fn):
        """Apply fn to every coefficient, dropping the zeros it makes."""
        return self._like(
            {k: p for k, c in self.terms.items() if not (p := fn(c)).is_zero()}
        )

    def _collect(self, pairs):
        """A value like self holding the sum of (key, coefficient) pairs."""
        return self._like(summed_terms(pairs))

    def _product(self, other):
        """Sum of the products of every term of self with every term of other.

        Coefficient rings have no zero divisors, so only a sum can vanish.
        """
        key_mul = self._key_mul
        other_terms = other.terms.items()
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other_terms:
                key, sign = key_mul(k1, k2)
                c = c1 * c2
                acc = terms.get(key)
                if acc is None:
                    terms[key] = c if sign > 0 else -c
                else:
                    c = acc + c if sign > 0 else acc - c
                    if c.is_zero():
                        del terms[key]
                    else:
                        terms[key] = c
        return self._like(terms)


def _poly(alphabet, terms):
    """ParamPoly over terms that are already clean (sorted, nonzero)."""
    out = _new(ParamPoly)
    out.alphabet, out.terms = alphabet, terms
    return out


def read_only(value):
    """value, its terms made a read-only view in place for a cache to share,
    and so, in turn, those of each coefficient that is itself a SparseTerms."""
    if not isinstance(value.terms, MappingProxyType):
        for c in value.terms.values():
            if isinstance(c, SparseTerms):
                read_only(c)
        value.terms = MappingProxyType(value.terms)
    return value


class ParamPoly(SparseTerms):
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
        return _poly(alphabet, {} if value.is_zero() else {(): value})

    @classmethod
    def zero(cls, alphabet):
        return _poly(alphabet, {})

    @classmethod
    def one(cls, alphabet):
        return cls.const(alphabet, 1)

    @classmethod
    def var(cls, alphabet, name, exp=1):
        return cls(alphabet, {((name, exp),): GR_ONE})

    def _like(self, terms):
        out = _new(ParamPoly)
        out.alphabet, out.terms = self.alphabet, terms
        return out

    def _check(self, other):
        if isinstance(other, ParamPoly):
            if other.alphabet is not self.alphabet and other.alphabet != self.alphabet:
                raise AlphabetMismatch("operands over different alphabets")
            return other
        s = _coerce_scalar(other)
        if s is None:
            return None
        return ParamPoly.const(self.alphabet, s)

    @staticmethod
    def _key_mul(m1, m2):
        return _merge_monomials(m1, m2), 1

    __add__ = __radd__ = SparseTerms.__add__

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        terms = self.terms
        if isinstance(other, ParamPoly):
            if other.alphabet is not self.alphabet:
                self._check(other)
            other_terms = other.terms
            # a one-term factor maps each term of the other to a term of its
            # own, so nothing is summed; a constant only scales
            if len(other_terms) == 1:
                ((m2, s),) = other_terms.items()
            elif len(terms) == 1:
                ((m2, s),), terms = terms.items(), other_terms
            else:
                return self._product(other)
            if m2:
                return self._like({_merge_monomials(m, m2): c * s for m, c in terms.items()})
        else:
            s = _coerce_scalar(other)
            if s is None:
                return NotImplemented
            if s.is_zero():
                return self._like({})
        # a product of nonzero field elements is nonzero
        return self._like({m: c * s for m, c in terms.items()})

    # a polynomial factor scales too, which the blade algebras' trace uses
    __rmul__ = scale = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("nonnegative integer exponent required")
        out = ParamPoly.one(self.alphabet)
        for _ in range(k):
            out = out * self
        return out

    def is_constant(self):
        return all(m == () for m in self.terms)

    def coefficient(self, mono):
        """Coefficient of an exact monomial, given as ((name, exp), ...)."""
        return self.terms.get(tuple(sorted(mono)), GR_ZERO)

    def subs(self, partial):
        """Substitute some parameters, leaving the rest symbolic.

        Each value is converted and each (name, exponent) power raised once
        per call; the products are summed as unreduced triples per remaining
        monomial and reduced once.  An assignment that names none of the
        parameters copies the terms.
        """
        terms = self.terms
        if not any(name in partial for mono in terms for name, _ in mono):
            return self._like(dict(terms))
        values, powers, sums = {}, {}, {}
        for mono, g in terms.items():
            a, b, d = g.a, g.b, g.d
            residual = []
            for pair in mono:
                name = pair[0]
                if name not in partial:
                    residual.append(pair)
                    continue
                v = powers.get(pair)
                if v is None:
                    v = values.get(name)
                    if v is None:
                        v = values[name] = GaussRational.from_value(partial[name])
                    v = powers[pair] = v if pair[1] == 1 else v ** pair[1]
                va, vb = v.a, v.b
                if vb:
                    a, b = a * va - b * vb, a * vb + b * va
                else:
                    a, b = a * va, b * va
                d *= v.d
            # a subsequence of a sorted key is sorted
            key = tuple(residual)
            s = sums.get(key)
            if s is None:
                sums[key] = [a, b, d]
            elif s[2] == d:
                s[0] += a
                s[1] += b
            else:
                sd = s[2]
                m = gcd(sd, d)
                s[0] = s[0] * (d // m) + a * (sd // m)
                s[1] = s[1] * (d // m) + b * (sd // m)
                s[2] = sd // m * d
        return self._like({k: _reduced(a, b, d) for k, (a, b, d) in sums.items() if a or b})

    def __hash__(self):
        # a constant (zero too) equals its scalar, so it hashes as one
        if self.is_constant():
            return hash(self.terms.get((), GR_ZERO))
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


class KeyTable(dict):
    """The int id table[key] of each key met in one product call, and the
    memos of their maps (hash-consing that lives for the call): rows[i][j]
    is the id of key_of[i] * key_of[j] under mul, an empty key being a unit,
    and steps[step][i] the (id, int factor) images of key_of[i] under a
    caller's step (symbols._nth)."""

    __slots__ = ("key_of", "rows", "mul", "steps")

    def __init__(self, mul):
        self.key_of, self.rows, self.mul, self.steps = [], [], mul, {}

    def __missing__(self, key):
        self.key_of.append(key)
        self.rows.append({})
        i = self[key] = len(self.rows) - 1
        return i


def _add_products(sums, left, right, table):
    """Add the products of the terms (id, a, b) of left and right, ids of
    table, into sums, a map id -> [a, b]: Gaussian integers a + b*i, all
    over the one denominator that the caller keeps (add_blade_products)."""
    key_of, rows = table.key_of, table.rows
    for i1, a1, b1 in left:
        row = rows[i1]
        for i2, a2, b2 in right:
            i = row.get(i2)
            if i is None:
                k1, k2 = key_of[i1], key_of[i2]
                i = row[i2] = table[k2 if not k1 else k1 if not k2 else table.mul(k1, k2)]
            s = sums.get(i)
            if s is None:
                sums[i] = [a1 * a2 - b1 * b2, a1 * b2 + b1 * a2]
            else:
                s[0] += a1 * a2 - b1 * b2
                s[1] += a1 * b2 + b1 * a2


def _from_sums(alphabet, sums, d, keys):
    """The ParamPoly of an _add_products map over d, ids decoded by keys."""
    return _poly(alphabet, {keys[i]: _reduced(a, b, d) for i, (a, b) in sums.items() if a or b})


def collector_paused(kernel):
    """kernel with the cyclic collector off while it runs, on again after it
    only if it was on at entry.  A kernel that builds no reference cycles
    frees its temporaries by refcount: a collection inside it frees nothing."""

    @wraps(kernel)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return kernel(*args, **kwargs)
        gc.disable()
        try:
            return kernel(*args, **kwargs)
        finally:
            gc.enable()

    return paused
