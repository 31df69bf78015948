"""Exact Clifford algebra Cl(n) with spinor trace.

Multivectors are maps from blade bitmask to ParamPoly coefficient, with the
generator relation c(e_i)c(e_j) + c(e_j)c(e_i) = -2 delta_ij (orthonormal
frame).  Each coefficient additionally carries a commutative "twist label",
a sorted tuple of formal factor names living on the auxiliary bundle side
(endomorphism powers, curvature entries); the label () is the plain algebra.

Blades is this algebra over any coefficient ring, the base of
CliffordElement, symbols.CliffXi and boundary.SphereSymbol.  As
tr(c_I c_J) = 0 for I != J, the trace of a product needs only its grade-0
part, mul_grade0.  `*` is the core's all-pairs product (exact.SparseTerms);
the sums of factor-pair products of B and E - B (_products_sum, with the
cyclic collector paused) and the symbol recursions sum, blade pair by blade
pair, integer forms over int key ids into one accumulator over one
denominator instead (add_blade_products); the sign rule is _sign_mask's.

The independent oracle, an explicit 2^(n/2)-dimensional matrix
representation, and the trace-lemma audit live in the module oracle, loaded
on first use; structural blade products and traces are cross-checked
against it.
"""

from __future__ import annotations

from math import lcm

from .errors import (
    AlphabetMismatch, DimMismatch, IndexOutOfRange, NonIncreasingTriple, OddDimension,
    ValidationError,
)
from .exact import (
    GR_ONE, GaussRational, KeyTable, ParamPoly, SparseTerms, _add_products, _from_sums,
    _merge_monomials, add_terms, collector_paused,
)


def _sign_mask(a):
    """Blade a times blade b has sign -1 iff _sign_mask(a) & b has odd
    parity: bit j is the parity of the generators of a at or above e_j."""
    m = 0
    while a:
        m ^= a
        a >>= 1
    return m


def blade_mul(a, b):
    """Product of two basis blades given as bitmasks.

    Returns (mask, sign) with sign in {+1, -1}; the sign combines the
    transposition count needed to interleave the factors with one factor
    of -1 per contracted index (e_i * e_i = -1).
    """
    return a ^ b, -1 if (_sign_mask(a) & b).bit_count() & 1 else 1


def _merge_labels(f1, f2):
    if not f1:
        return f2
    if not f2:
        return f1
    return tuple(sorted(f1 + f2))


def blade_key_mul(k1, k2):
    """Key product of (blade mask, twist label) keys: blades multiply with
    their sign, labels merge."""
    mask, sign = blade_mul(k1[0], k2[0])
    return (mask, _merge_labels(k1[1], k2[1])), sign


def add_blade_products(acc, p, q, table, factor=GR_ONE):
    """Add factor * p * q into acc, [D, {blade key: exact._add_products sums}]
    over one denominator D, for p and q in the kernel's integer form (d,
    {blade key: terms (id, a, b)}), (a + b*i) / d times the key of id in the
    exact.KeyTable table.  Where dp * dq * factor.d does not divide D, acc
    is raised in place to the lcm; the left terms are scaled by the
    quotient, once per blade of p and sign that occurs.  A blade pair costs
    a mask test, a label merge and one kernel call."""
    (dp, p), (dq, q), (d, blades) = p, q, acc
    dpq = dp * dq * factor.d
    if d % dpq:
        r = lcm(d, dpq) // d
        acc[:] = d, blades = d * r, {key: {i: [a * r, b * r] for i, (a, b) in sums.items()}
                                     for key, sums in blades.items()}
    fa, fb = factor.a * (d // dpq), factor.b * (d // dpq)
    for (m1, f1), terms in p.items():
        mask, lefts = _sign_mask(m1), [None, None]
        for (m2, f2), right in q.items():
            odd = (mask & m2).bit_count() & 1
            left = lefts[odd]
            if left is None:
                sa, sb = (-fa, -fb) if odd else (fa, fb)
                left = lefts[odd] = terms if (sa, sb) == (1, 0) else [
                    (i, a * sa - b * sb, a * sb + b * sa) for i, a, b in terms]
            key = (m1 ^ m2, f2 if not f1 else f1 if not f2 else _merge_labels(f1, f2))
            sums = blades.get(key)
            if sums is None:
                sums = blades[key] = {}
            _add_products(sums, left, right, table)


class Blades(SparseTerms):
    """Sparse map from (blade mask, twist label) to nonzero coefficients of
    the ring a subclass names in `coeff` (which must have .zero(alphabet)),
    with the products, the grade-0 join and the fibre trace of every subclass.
    """

    __slots__ = ("dim", "alphabet", "terms")

    def __init__(self, dim, alphabet, terms=None):
        self.dim = dim
        self.alphabet = alphabet
        self.terms = {k: c for k, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def zero(cls, dim, alphabet):
        return cls(dim, alphabet)

    def _like(self, terms):
        cls = type(self)
        out = cls.__new__(cls)
        out.dim, out.alphabet, out.terms = self.dim, self.alphabet, terms
        return out

    def _check(self, other):
        if isinstance(other, type(self)) and other.dim != self.dim:
            raise DimMismatch(f"dim {self.dim} vs {other.dim}")
        return SparseTerms._check(self, other)

    _key_mul = staticmethod(blade_key_mul)

    def mul_grade0(self, other):
        """Grade-0 part of self * other, without forming the product.

        Blades multiply to mask m1 ^ m2, so only equal masks reach grade 0:
        terms are joined on the mask, O(|a| + |b|) instead of |a| * |b|.
        """
        other = self._check(other)
        if other is None:
            raise TypeError(f"{type(self).__name__} required")
        by_mask = {}
        for (m, f), c in other.terms.items():
            by_mask.setdefault(m, []).append((f, c))
        terms = {}
        for (m, f1), c1 in self.terms.items():
            partners = by_mask.get(m)
            if partners:
                # c_I c_I = +-1: a negative sign subtracts the products
                pairs = (((0, _merge_labels(f1, f2)), c1 * c2) for f2, c2 in partners)
                add_terms(terms, pairs, blade_mul(m, m)[1] < 0)
        return self._like(terms)

    def coefficient(self, mask, label=()):
        got = self.terms.get((mask, tuple(label)))
        return got if got is not None else self.coeff.zero(self.alphabet)

    def trace(self, label_rule):
        """Fibre trace: blades of positive grade are traceless, the identity
        contributes the spinor dimension 2^(dim/2), and label_rule maps each
        twist label to its trace scalar (e.g. () -> dimF)."""
        trid = GaussRational(2 ** (self.dim // 2))
        return self.coeff.zero(self.alphabet).plus(
            c.scale(label_rule(f) * trid) for (mask, f), c in self.terms.items() if not mask
        )


class CliffordElement(Blades):
    """Multivector with ParamPoly coefficients keyed by (blade mask, label)."""

    __slots__ = ()

    coeff = ParamPoly

    def __init__(self, dim, alphabet, terms=None):
        if dim % 2 or dim < 2:
            raise OddDimension(f"even dimension >= 2 required, got {dim}")
        self.dim = dim
        self.alphabet = alphabet
        clean = {}
        for (mask, label), coeff in (terms or {}).items():
            if mask < 0 or mask >= (1 << dim):
                raise IndexOutOfRange(f"blade mask {mask} out of range for n={dim}")
            if coeff.alphabet is not alphabet and coeff.alphabet != alphabet:
                raise AlphabetMismatch("coefficient over another alphabet")
            if not coeff.is_zero():
                clean[(mask, tuple(label))] = coeff
        self.terms = clean

    @classmethod
    def scalar(cls, dim, alphabet, value):
        if not isinstance(value, ParamPoly):
            value = ParamPoly.const(alphabet, value)
        return cls(dim, alphabet, {(0, ()): value})

    @classmethod
    def generator(cls, dim, alphabet, i):
        """c(e_i) for 1-based index i."""
        if not 1 <= i <= dim:
            raise IndexOutOfRange(f"generator index {i} out of 1..{dim}")
        return cls(dim, alphabet, {(1 << (i - 1), ()): ParamPoly.one(alphabet)})

    @classmethod
    def from_vector(cls, dim, alphabet, coeffs, label=()):
        """c(v) for v = sum coeffs[i] e_{i+1}; coeffs are ParamPoly."""
        if len(coeffs) != dim:
            raise DimMismatch(f"expected {dim} components, got {len(coeffs)}")
        label = tuple(label)
        return cls(dim, alphabet, {
            (1 << i, label): c if isinstance(c, ParamPoly) else ParamPoly.const(alphabet, c)
            for i, c in enumerate(coeffs)
        })

    # its own binding, so that wrapping CliffordElement products leaves the
    # other blade algebras' products alone
    __mul__ = SparseTerms.__mul__

    @collector_paused
    def _products_sum(self, pairs):
        """Sum of x * y over the pairs (x, y) in one integer accumulator, built
        once, each factor brought to the integer form (over the lcm of its
        denominators) once; recurring monomial pairs merge once each in the
        call's key table."""
        acc, table = [1, {}], KeyTable(_merge_monomials)

        def form(v):
            d = lcm(*[g.d for c in v.terms.values() for g in c.terms.values()])
            return d, {key: [(table[m], g.a * (d // g.d), g.b * (d // g.d))
                             for m, g in c.terms.items()] for key, c in v.terms.items()}

        for x, y in pairs:
            add_blade_products(acc, form(x), form(y), table)
        d, blades = acc
        return self._like({k: p for k, sums in blades.items()
                           if (p := _from_sums(self.alphabet, sums, d, table.key_of)).terms})

    def with_label(self, label):
        """Tensor by a formal twist factor (merged into every term label)."""
        label = tuple(label)
        return self._collect(
            ((mask, _merge_labels(f, label)), c) for (mask, f), c in self.terms.items()
        )

    def grade(self, k):
        return self._like(
            {key: c for key, c in self.terms.items() if key[0].bit_count() == k}
        )

    def __repr__(self):
        return f"CliffordElement(n={self.dim}, {len(self.terms)} terms)"


def twisted_trace(a, label_trace):
    """Spinor trace combined with a trace rule on twist labels.

    label_trace maps a label tuple to a ParamPoly (e.g. () -> dimF).
    """
    return a.trace(label_trace)


def _triples(n):
    """Strictly increasing index triples a < b < c in 1..n."""
    return [
        (a, b, c)
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        for c in range(b + 1, n + 1)
    ]


def _triple_sign(a, b, c):
    """Sign of the permutation taking sorted order to (a, b, c), for
    distinct indices: -1 to the number of inversions."""
    return -1 if ((a > b) + (a > c) + (b > c)) % 2 else 1


def torsion_element(dim, alphabet, triples, label=()):
    """Grade-3 multivector sum T_abc c(e_a)c(e_b)c(e_c) over a<b<c."""
    terms = {}
    for (a, b, c), coeff in triples.items():
        if not (1 <= a and c <= dim):
            raise IndexOutOfRange(f"triple {(a, b, c)} out of range for n={dim}")
        if not a < b < c:
            raise NonIncreasingTriple(f"triple {(a, b, c)} is not strictly increasing")
        if not isinstance(coeff, ParamPoly):
            coeff = ParamPoly.const(alphabet, coeff)
        mask = (1 << (a - 1)) | (1 << (b - 1)) | (1 << (c - 1))
        key = (mask, tuple(label))
        if key in terms:
            raise NonIncreasingTriple(f"duplicate triple {(a, b, c)}")
        if not coeff.is_zero():
            terms[key] = coeff
    return CliffordElement(dim, alphabet, terms)


# The lemma audit's cost per trial grows as (n + 1)^3, the size of its
# random connection data: 2.8-7.6 us per unit on a 2-core Xeon VM, 9 ms per
# trial at n = 12.  The budget, 5000 trials at n = 12, keeps an audit at any
# n under about a minute and a half there.
LEMMA_BUDGET = 5000 * 13 ** 3


def check_lemma_budget(n, trials, field):
    """Reject a lemma audit of more than LEMMA_BUDGET trials x (n + 1)^3
    before any work; here so that a config can check it without the oracle."""
    unit = (n + 1) ** 3
    if trials * unit > LEMMA_BUDGET:
        raise ValidationError(
            field, f"{trials} trials at n={n} exceed the audit budget of "
            f"{LEMMA_BUDGET // unit} trials"
        )


# The matrix oracle, the lemma audit and spinor_trace live in .oracle, which
# plain reports never load; these names reach it on first use (PEP 562).
_ORACLE_NAMES = frozenset(("SpinorMatrix", "blade_matrix", "clifford_matrix_rep", "represent",
                           "spinor_trace", "verify_trace_lemmas"))


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
