"""Exact Clifford algebra Cl(n) with spinor trace and a matrix oracle.

Multivectors are maps from blade bitmask to ParamPoly coefficient, with the
generator relation c(e_i)c(e_j) + c(e_j)c(e_i) = -2 delta_ij (orthonormal
frame).  Each coefficient additionally carries a commutative "twist label",
a sorted tuple of formal factor names living on the auxiliary bundle side
(endomorphism powers, curvature entries); the label () is the plain algebra.

Blades is this algebra over any coefficient ring, the base of
CliffordElement, symbols.CliffXi and boundary.SphereSymbol.  As
tr(c_I c_J) = 0 for I != J, the trace of a product needs only its grade-0
part, mul_grade0.

The independent oracle is an explicit 2^(n/2)-dimensional matrix
representation whose generators are sparse iterated Kronecker products of
Pauli matrices; structural blade products and traces are cross-checked
against it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import (
    DimMismatch,
    IndexOutOfRange,
    NonIncreasingTriple,
    OddDimension,
    UnsupportedDimension,
    ValidationError,
)
from .exact import (
    GR_I, GR_ONE, GR_ZERO, Alphabet, GaussRational, ParamPoly, SparseTerms, add_terms,
)

EMPTY_ALPHABET = Alphabet(())


def blade_mul(a, b):
    """Product of two basis blades given as bitmasks.

    Returns (mask, sign) with sign in {+1, -1}; the sign combines the
    transposition count needed to interleave the factors with one factor
    of -1 per contracted index (e_i * e_i = -1).
    """
    mask = a ^ b
    contracted = bin(a & b).count("1")
    swaps = 0
    t = a >> 1
    while t:
        swaps += bin(t & b).count("1")
        t >>= 1
    sign = -1 if (swaps + contracted) % 2 else 1
    return mask, sign


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
        total = self.coeff.zero(self.alphabet)
        for (mask, label), c in self.terms.items():
            if not mask:
                total = total + c.scale(label_rule(label) * trid)
        return total


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

    def with_label(self, label):
        """Tensor by a formal twist factor (merged into every term label)."""
        label = tuple(label)
        return self._collect(
            ((mask, _merge_labels(f, label)), c) for (mask, f), c in self.terms.items()
        )

    def grade(self, k):
        return self._like(
            {key: c for key, c in self.terms.items() if bin(key[0]).count("1") == k}
        )

    def __repr__(self):
        return f"CliffordElement(n={self.dim}, {len(self.terms)} terms)"


def clifford_product(a, b):
    """Structural blade-mask product."""
    return a * b


def spinor_trace(a):
    """2^(n/2) times the plain grade-0 coefficient.

    Twisted labels are deliberately rejected here; use twisted_trace with an
    explicit label trace rule for elements carrying twist factors.
    """
    if a.dim % 2:
        raise OddDimension("even dimension required")
    for (_, label) in a.terms:
        if label:
            raise ValueError("element carries twist labels; use twisted_trace")
    return a.coefficient(0).scale(2 ** (a.dim // 2))


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


class SpinorMatrix:
    """Square matrix with sparse rows; entries are GaussRational or ParamPoly."""

    __slots__ = ("size", "rows")

    def __init__(self, size, rows=None):
        self.size = size
        if rows is None:
            rows = [dict() for _ in range(size)]
        self.rows = rows

    @classmethod
    def identity(cls, size, one=GR_ONE):
        return cls(size, [{i: one} for i in range(size)])

    def __add__(self, other):
        return _combination(self.size, [(GR_ONE, self), (GR_ONE, other)])

    def __mul__(self, other):
        if self.size != other.size:
            raise DimMismatch("matrix size mismatch")
        rows = []
        for r in self.rows:
            acc = {}
            for k, a in r.items():
                for j, b in other.rows[k].items():
                    p = a * b
                    if j in acc:
                        s = acc[j] + p
                        if s.is_zero():
                            del acc[j]
                        else:
                            acc[j] = s
                    else:
                        acc[j] = p
            rows.append(acc)
        return SpinorMatrix(self.size, rows)

    def trace(self):
        total = None
        for i, r in enumerate(self.rows):
            if i in r:
                total = r[i] if total is None else total + r[i]
        return GR_ZERO if total is None else total

    def trace_product(self, other):
        """Trace of self * other without forming it: sum_ik A_ik B_ki.

        Cheapest with the sparser matrix as self.
        """
        if self.size != other.size:
            raise DimMismatch("matrix size mismatch")
        total = None
        for i, r in enumerate(self.rows):
            for k, a in r.items():
                b = other.rows[k].get(i)
                if b is not None:
                    p = a * b
                    total = p if total is None else total + p
        return GR_ZERO if total is None else total

    def __eq__(self, other):
        if not isinstance(other, SpinorMatrix):
            return NotImplemented
        return self.size == other.size and self.rows == other.rows

    def __repr__(self):
        return f"SpinorMatrix(size={self.size})"


def _kron(a, b):
    """Kronecker product of sparse matrices."""
    return SpinorMatrix(a.size * b.size, [
        {i * b.size + k: x * y for i, x in ra.items() for k, y in rb.items()}
        for ra in a.rows for rb in b.rows
    ])


_ISIGMA1 = SpinorMatrix(2, [{1: GR_I}, {0: GR_I}])
_ISIGMA2 = SpinorMatrix(2, [{1: GR_ONE}, {0: -GR_ONE}])
_SIGMA3 = SpinorMatrix(2, [{0: GR_ONE}, {1: -GR_ONE}])


# Process-wide caches: their matrices never leave this module, and the public
# accessors below hand out copies.


@lru_cache(maxsize=None)
def _generators(n):
    """i sigma_1, i sigma_2 at n = 2; sigma_3 (x) c_k for the generators c_k
    of Cl(n - 2), then i sigma_1 (x) 1 and i sigma_2 (x) 1."""
    if n % 2 or not 2 <= n <= 12:
        raise UnsupportedDimension(f"matrix representation needs even 2 <= n <= 12, got {n}")
    if n == 2:
        return (_ISIGMA1, _ISIGMA2)
    eye = SpinorMatrix.identity(2 ** (n // 2 - 1))
    return tuple(_kron(_SIGMA3, g) for g in _generators(n - 2)) + (
        _kron(_ISIGMA1, eye), _kron(_ISIGMA2, eye),
    )


@lru_cache(maxsize=None)
def _blade(n, mask):
    gens = _generators(n)
    out = SpinorMatrix.identity(2 ** (n // 2))
    for i in range(n):
        if mask & (1 << i):
            out = out * gens[i]
    return out


def _owned(m):
    return SpinorMatrix(m.size, [dict(r) for r in m.rows])


def clifford_matrix_rep(n):
    """Generator matrices for Cl(n) as a tuple; n even, 2 <= n <= 12."""
    return tuple(_owned(g) for g in _generators(n))


def blade_matrix(n, mask):
    """Matrix of the basis blade with the given mask."""
    return _owned(_blade(n, mask))


def represent(a):
    """Matrix of a label-free multivector; entries become ParamPoly."""
    for (_, label) in a.terms:
        if label:
            raise ValueError("element carries twist labels; represent label-free parts")
    return _combination(
        2 ** (a.dim // 2),
        [(coeff, _blade(a.dim, mask)) for (mask, _), coeff in a.terms.items()],
    )


def _rand_fraction(rng, span=6):
    num = rng.randint(-span, span)
    den = rng.randint(1, 4)
    return Fraction(num, den)


def _triple_sign(a, b, c):
    """Sign of the permutation taking sorted order to (a, b, c), for
    distinct indices: -1 to the number of inversions."""
    return -1 if ((a > b) + (a > c) + (b > c)) % 2 else 1


def _t_lookup(triples, a, b, c):
    """Fully antisymmetric extension of strictly-increasing triple data."""
    if a == b or b == c or a == c:
        return Fraction(0)
    base = triples.get(tuple(sorted((a, b, c))), Fraction(0))
    return _triple_sign(a, b, c) * base


def _combination(size, pairs):
    """The matrix sum of v * M over (v, M) pairs, accumulated row by row.

    The coefficient v multiplies from the left, so polynomial coefficients
    take their scalar fast path.
    """
    rows = [dict() for _ in range(size)]
    for v, mat in pairs:
        for acc, row in zip(rows, mat.rows):
            for j, x in row.items():
                p = v * x
                s = acc.get(j)
                acc[j] = p if s is None else s + p
    return SpinorMatrix(
        size, [{j: x for j, x in acc.items() if not x.is_zero()} for acc in rows]
    )


def _delta4(i, j, k, l):
    """Tr(c_i c_j c_k c_l) / tr(id) for generator indices."""
    return (i == j) * (k == l) - (i == k) * (j == l) + (i == l) * (j == k)


_ALGEBRAIC_IDENTITIES = (
    "trace_pair_vector",
    "trace_torsion_square",
    "contraction_joined_first",
    "contraction_joined_second",
    "contraction_joined_third",
)

# The covariant-derivative slots, sum_j Tr(c_j L c(nabla_j e_x) R) per
# triple (a, b, c).  Each row: the identity; the position of x in the
# triple; the fixed blade product R c_j L, as index groups, that the trace
# meets by cyclicity; the indices of the full contraction delta4 at (j, l);
# and the printed closed form of that contraction, with w[j][x][l] =
# <nabla_j e_x, e_l>.
_DERIV_SLOTS = (
    # sum_j c_j c(nabla_j e_a) c_b c_c; printed: -2 T_ajl w_jal over a<j<l
    ("deriv_contraction_first", 0,
     lambda a, b, c, j: ((b, c), (j,)),
     lambda a, b, c, j, l: (j, l, b, c),
     lambda T, w, n: sum(
         (-2 * v * w[j][a][l] for (a, j, l), v in T.items()), Fraction(0))),
    # sum_j c_j c_a c(nabla_j e_b) c_c; printed: T_lbj w_jbl
    ("deriv_contraction_second", 1,
     lambda a, b, c, j: ((c,), (j,), (a,)),
     lambda a, b, c, j, l: (j, a, l, c),
     lambda T, w, n: sum(
         (_t_lookup(T, l, b, j) * w[j][b][l]
          for l, b, j in product(range(1, n + 1), repeat=3)), Fraction(0))),
    # sum_j c_j c_a c_b c(nabla_j e_c); printed: -T_ljg w_jgl
    ("deriv_contraction_third", 2,
     lambda a, b, c, j: ((j,), (a, b)),
     lambda a, b, c, j, l: (j, a, b, l),
     lambda T, w, n: sum(
         (-_t_lookup(T, l, j, g) * w[j][g][l]
          for l, j, g in product(range(1, n + 1), repeat=3)), Fraction(0))),
)


def verify_trace_lemmas(n, trials, seed=0, deriv_trials=None):
    """Exact trace-identity verification against the matrix oracle.

    Returns a list of record dicts: identity id, dimension, trials, status
    for the algebraic contraction form, status for the printed closed form,
    and a counterexample rendering when a side disagrees.

    deriv_trials sizes the covariant-derivative contraction block
    separately (defaults to trials; 0 skips those records).

    Every left-hand side is a trace of a matrix product, taken with
    SpinorMatrix.trace_product without forming the product.
    """
    if deriv_trials is None:
        deriv_trials = trials
    for name, count in (("trials", trials), ("deriv_trials", deriv_trials)):
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise ValidationError(name, f"nonnegative integer required, got {count!r}")
    _generators(n)  # rejects an unsupported n before any trial
    rng = random.Random(seed)
    size = 2 ** (n // 2)
    trid = GaussRational(size)
    triples_idx = _triples(n)
    counts = dict.fromkeys(_ALGEBRAIC_IDENTITIES, trials)
    if deriv_trials:
        counts.update((slot[0], deriv_trials) for slot in _DERIV_SLOTS)
    state = {ident: [True, True, None] for ident in counts}

    def check(key, oracle_ok, printed_ok, oracle_text, printed_text):
        """Fold one comparison into the identity's state; the text of the
        first failing side becomes its counterexample."""
        st = state[key]
        if not oracle_ok:
            st[0] = False
            st[2] = st[2] or oracle_text
        if not printed_ok:
            st[1] = False
            st[2] = st[2] or printed_text

    def blade(*idx):
        """Matrix of c(e_i1) c(e_i2) ... for increasing indices."""
        mask = 0
        for i in idx:
            mask |= 1 << (i - 1)
        return _blade(n, mask)

    def oracle(pairs):
        """Matrix of sum v * blade(*idx) over (idx, v) pairs."""
        return _combination(
            size, [(GaussRational(v), blade(*idx)) for idx, v in pairs if v]
        )

    def vector(values):
        return [((i,), v) for i, v in enumerate(values, 1)]

    def joined(T, pos, first, second):
        """B_m = sum of T_t c(e_t[first]) c(e_t[second]) over triples t
        with t[pos] = m, by m."""
        groups = {}
        for t, v in T.items():
            groups.setdefault(t[pos], []).append(((t[first], t[second]), v))
        return {m: oracle(pairs) for m, pairs in groups.items()}

    for _ in range(trials):
        T = {t: _rand_fraction(rng) for t in triples_idx}
        X = [_rand_fraction(rng) for _ in range(n)]
        Y = [_rand_fraction(rng) for _ in range(n)]
        gyx = GaussRational(sum(y * x for y, x in zip(Y, X))) * trid
        t2 = GaussRational(sum(v * v for v in T.values())) * trid

        m_t = oracle(T.items())
        lhs = oracle(vector(X)).trace_product(m_t + oracle(vector(Y)))
        text = f"Tr((c(T)+c(Y))c(X)) = {lhs}"
        check("trace_pair_vector", lhs == -gyx, lhs == -gyx, text, text)

        # with c(e_i)^2 = -1 a grade-3 blade squares to +1, so the trace
        # of c(T)^2 is +sum(T^2)*tr(id); the printed form has -sum(T^2)
        lhs = m_t.trace_product(m_t)
        check("trace_torsion_square", lhs == t2, lhs == -t2,
              f"Tr(c(T)c(T)) = {lhs}", f"Tr(c(T)c(T)) = {lhs}, printed = {-t2}")

        # sum over m of Tr(A_m B_m), A_m = sum of T_mbc c_b c_c, joining the
        # tilde triple on its first / second / third index.
        # Tr(c_b c_c c_b c_c) = -tr(id) for b != c, so the joined-first
        # contraction is -sum(T^2)*tr(id); the printed form has +sum(T^2)
        a_mats = joined(T, 0, 1, 2)
        for word, b_mats, oracle_rhs, printed_rhs in (
            ("first", a_mats, -t2, t2),
            ("second", joined(T, 1, 0, 2), GR_ZERO, GR_ZERO),
            ("third", joined(T, 2, 0, 1), GR_ZERO, GR_ZERO),
        ):
            lhs = GR_ZERO
            for m, a_m in a_mats.items():
                if m in b_mats:
                    lhs = lhs + a_m.trace_product(b_mats[m])
            text = f"joined-{word} contraction = {lhs}"
            check(f"contraction_joined_{word}", lhs == oracle_rhs, lhs == printed_rhs,
                  text, f"{text}, printed = {printed_rhs}")

    # Products of fixed blade matrices, formed once per call: each slot's
    # trace Tr(c_j L c(nabla_j e) R) is taken as Tr((R c_j L) c(nabla_j e)).
    fixed = {}

    def fixed_product(groups):
        got = fixed.get(groups)
        if got is None:
            got = blade(*groups[0])
            for g in groups[1:]:
                got = got * blade(*g)
            fixed[groups] = got
        return got

    # covariant-derivative contractions with free connection scalars
    for _ in range(deriv_trials):
        T = {t: _rand_fraction(rng) for t in triples_idx}
        w = [
            [[_rand_fraction(rng) for _ in range(n + 1)] for _ in range(n + 1)]
            for _ in range(n + 1)
        ]  # w[j][x][l] = <nabla_j e_x, e_l>, 1-based
        # vmats[x][j] = c(nabla_j e_x)
        vmats = [None] + [
            [None] + [oracle(vector(w[j][x][1:])) for j in range(1, n + 1)]
            for x in range(1, n + 1)
        ]
        for ident, pos, fixed_groups, pattern, printed in _DERIV_SLOTS:
            lhs, rhs = GR_ZERO, Fraction(0)
            for t, v in T.items():
                if v == 0:
                    continue
                x = t[pos]
                part = GR_ZERO
                for j in range(1, n + 1):
                    left = fixed_product(fixed_groups(*t, j))
                    part = part + left.trace_product(vmats[x][j])
                    for l in range(1, n + 1):
                        d = _delta4(*pattern(*t, j, l))
                        if d:
                            rhs += v * w[j][x][l] * d
                lhs = lhs + GaussRational(v) * part
            rhs_printed = printed(T, w, n)
            check(ident, lhs == GaussRational(rhs) * trid, rhs == rhs_printed,
                  f"lhs = {lhs}, contraction = {rhs}",
                  f"contraction = {rhs}, printed = {rhs_printed}")

    return [
        {
            "identity": ident,
            "dim": n,
            "trials": counts[ident],
            "status": "pass" if ok else "fail",
            "printed_status": "pass" if ok_printed else "differs",
            "counterexample": example,
        }
        for ident, (ok, ok_printed, example) in state.items()
    ]
