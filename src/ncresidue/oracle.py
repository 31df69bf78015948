"""Matrix oracle for Cl(n), the trace-lemma audit and the helpers no report runs.

The oracle is an explicit 2^(n/2)-dimensional matrix representation whose
generators are sparse iterated Kronecker products of Pauli matrices.  It
uses only the scalar layer and reads only the `terms` maps of the
multivectors it represents, so it stays independent of the blade algebra it
checks.  Plain reports never load this module: clifford, geometry and the
package reach its names on first use (PEP 562).

The helpers that tests and library callers use but no report runs live here
too, so that reports compile none of them: spinor_trace, connection_and_E
(the full assembly of E) and exact or float evaluation: to_complex,
poly_eval, poly_params, constant_value, eval_exact and numeric_fn.

The audit, verify_trace_lemmas, checks the Clifford trace identities the
torsion terms rest on.  Every left side is linear or bilinear in the random
data, so the matrix traces it needs are tabulated once per dimension and
each trial is a sum of exact scalars over the nonzero table entries.  The
per-trial matrix path it replaces stays in the tests as its oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from .clifford import CliffordElement, check_lemma_budget
from .errors import (DimMismatch, OddDimension, UnboundParameter, UnsupportedDimension,
                     ValidationError, check_int)
from .exact import GR_I, GR_ONE, GR_ZERO, GaussRational, ParamPoly
from .geometry import LaplaceNormalForm, _connection_parts


class SpinorMatrix:
    """Square matrix with sparse rows; entries are GaussRational or ParamPoly."""

    __slots__ = ("size", "rows")

    def __init__(self, size, rows=None):
        self.size = size
        if rows is None:
            rows = [dict() for _ in range(size)]
        self.rows = rows

    @classmethod
    def identity(cls, size):
        return cls(size, [{i: GR_ONE} for i in range(size)])

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


# Process-wide caches: their matrices and tables never leave this module, and
# the public accessors below hand out copies.


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


def _index_blade(n, idx):
    """Matrix of c(e_i1) c(e_i2) ... for increasing indices."""
    mask = 0
    for i in idx:
        mask |= 1 << (i - 1)
    return _blade(n, mask)


def _trace_table(lefts, rights):
    """The nonzero traces Tr(L_p R_q) over {p: L_p} and {q: R_q}, as
    {(p, q): (re, im)}, integers where integral.

    Each entry L_ik is joined against an index of the right matrices'
    entries by (row, column) = (k, i), the only entries its trace meets.
    """
    by_pos = {}
    for q, mat in rights.items():
        for k, row in enumerate(mat.rows):
            for i, b in row.items():
                by_pos.setdefault((k, i), []).append((q, b))
    table = {}
    for p, mat in lefts.items():
        for i, row in enumerate(mat.rows):
            for k, a in row.items():
                for q, b in by_pos.get((k, i), ()):
                    s = table.get((p, q))
                    table[p, q] = a * b if s is None else s + a * b
    return {
        key: tuple(x.numerator if x.denominator == 1 else x for x in (v.re, v.im))
        for key, v in table.items() if not v.is_zero()
    }


# Every random draw is num/den with den in 1..4, so _SCALE times it is an
# integer.  Every side is bilinear in the draws: the trials sum integers and
# divide by _SCALE^2 once per side.
_SCALE = 12


def _rand_scaled(rng):
    """_SCALE times a random fraction num/den, |num| <= 6, den in 1..4."""
    num = rng.randint(-6, 6)
    return num * (_SCALE // rng.randint(1, 4))


def _unscaled(x):
    return Fraction(x, _SCALE ** 2)


def _contract(terms, left, right):
    """GaussRational sum of left[p] * right[q] * e over (p, q, e) terms, e
    as (re, im), for draws scaled by _SCALE."""
    re = im = 0
    for p, q, (er, ei) in terms:
        w = left[p] * right[q]
        if er:
            re += w * er
        if ei:
            im += w * ei
    return GaussRational(_unscaled(re), _unscaled(im))


def _triples(n):
    """Strictly increasing index triples a < b < c in 1..n, in lexical order."""
    return list(combinations(range(1, n + 1), 3))


def _t_lookup(triples, a, b, c):
    """Fully antisymmetric extension of strictly-increasing triple data, at
    distinct indices."""
    base = triples.get(tuple(sorted((a, b, c))), 0)
    # the sign of the permutation that sorts (a, b, c): -1 to its inversions
    return -base if ((a > b) + (a > c) + (b > c)) % 2 else base


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

# The joined contractions sum over m of Tr(A_m B_m), A_m = sum of
# T_t c_t1 c_t2 over triples t with t0 = m.  Each row: the word; the position
# of m in the triples u that make up B_m; the positions of u's two generators
# in B_m, in order; the delta4 indices of the term (t, u), stated apart from
# the matrix side; and the oracle and printed values in units of
# sum(T^2) tr(id).  Tr(c_b c_c c_b c_c) = -tr(id) for b != c, so the
# joined-first contraction is -sum(T^2) tr(id); the printed form has +.
_JOINED = (
    ("first", 0, (1, 2), lambda t, u: (t[1], t[2], u[1], u[2]), -1, 1),
    ("second", 1, (0, 2), lambda t, u: (t[1], t[2], u[0], u[2]), 0, 0),
    ("third", 2, (0, 1), lambda t, u: (t[1], t[2], u[0], u[1]), 0, 0),
)

# The covariant-derivative slots, sum_j Tr(c_j L c(nabla_j e_x) R) per
# triple (a, b, c).  Each row: the identity; the position of x in the
# triple; the fixed blade product R c_j L, as index groups, that the trace
# meets by cyclicity; the indices of the full contraction delta4 at (j, l);
# and the printed closed form of that contraction, with w[j][x][l] =
# <nabla_j e_x, e_l>; T vanishes on a repeated index, so the printed sums run
# over distinct indices.
_DERIV_SLOTS = (
    # sum_j c_j c(nabla_j e_a) c_b c_c; printed: -2 T_ajl w_jal over a<j<l
    ("deriv_contraction_first", 0,
     lambda a, b, c, j: ((b, c), (j,)),
     lambda a, b, c, j, l: (j, l, b, c),
     lambda T, w, n: sum(
         (-2 * v * w[j][a][l] for (a, j, l), v in T.items()), 0)),
    # sum_j c_j c_a c(nabla_j e_b) c_c; printed: T_lbj w_jbl
    ("deriv_contraction_second", 1,
     lambda a, b, c, j: ((c,), (j,), (a,)),
     lambda a, b, c, j, l: (j, a, l, c),
     lambda T, w, n: sum(
         (_t_lookup(T, l, b, j) * w[j][b][l]
          for l, b, j in permutations(range(1, n + 1), 3)), 0)),
    # sum_j c_j c_a c_b c(nabla_j e_c); printed: -T_ljg w_jgl
    ("deriv_contraction_third", 2,
     lambda a, b, c, j: ((j,), (a, b)),
     lambda a, b, c, j, l: (j, a, b, l),
     lambda T, w, n: sum(
         (-_t_lookup(T, l, j, g) * w[j][g][l]
          for l, j, g in permutations(range(1, n + 1), 3)), 0)),
)

# The counterexample texts of a failing oracle side and a failing printed
# side, formatted with the fields of _sides.
_TEXTS = {
    "trace_pair_vector": ("Tr((c(T)+c(Y))c(X)) = {lhs}",) * 2,
    "trace_torsion_square": (
        "Tr(c(T)c(T)) = {lhs}", "Tr(c(T)c(T)) = {lhs}, printed = {printed}",
    ),
    **{
        f"contraction_joined_{word}": (
            f"joined-{word} contraction = {{lhs}}",
            f"joined-{word} contraction = {{lhs}}, printed = {{printed}}",
        )
        for word, *_ in _JOINED
    },
    **{
        slot[0]: ("lhs = {lhs}, contraction = {mid}", "contraction = {mid}, printed = {printed}")
        for slot in _DERIV_SLOTS
    },
}


@lru_cache(maxsize=None)
def _algebraic_tables(n):
    """Trace tables of the algebraic identities, as (p, q, (re, im)) terms.

    Returns the traces Tr(c_i M_q) for a generator c_i and a vector or
    triple blade M_q; Tr(M_t M_u) over triples; and, per joined row, the
    nonzero Tr(c_t1 c_t2 c_u c_u') of the joined triples (t, u), with the
    first table entry that differs from tr(id) delta4 of the row's indices
    (None when every entry agrees).
    """
    triples = _triples(n)
    size = 2 ** (n // 2)
    blades = {idx: _index_blade(n, idx) for idx in [(i,) for i in range(1, n + 1)] + triples}
    table = _trace_table(blades, blades)
    pair = [(p, q, e) for (p, q), e in table.items() if len(p) == 1]
    square = [(p, q, e) for (p, q), e in table.items() if len(p) == len(q) == 3]

    # generator pairs as ordered matrix products, so that an index order
    # shows in the entries
    gens = _generators(n)
    pairs = {(a, b): gens[a - 1] * gens[b - 1] for a, b in permutations(range(1, n + 1), 2)}
    pair_table = _trace_table(pairs, pairs)
    joined = {}
    for word, pos, free, pattern, *_ in _JOINED:
        terms, mismatch = [], None
        b_sides = [(u, tuple(u[i] for i in free)) for u in triples]
        for t in triples:
            a = (t[1], t[2])
            for u, b in b_sides:
                e = pair_table.get((a, b), (0, 0))
                expected = size * _delta4(*pattern(t, u))
                if mismatch is None and e != (expected, 0):
                    mismatch = (
                        f"joined-{word} entry Tr(c_{a[0]} c_{a[1]} c_{b[0]} c_{b[1]}) = "
                        f"{GaussRational(*e)}, tr(id) delta4 = {expected}"
                    )
                if u[pos] == t[0] and e != (0, 0):
                    terms.append((t, u, e))
        joined[word] = (terms, mismatch)
    return pair, square, joined


@lru_cache(maxsize=None)
def _deriv_tables(n):
    """Per derivative slot and triple t, the nonzero (j, l, Tr(F_tj c_l))
    with F_tj the slot's fixed blade product, and the nonzero (j, l, d) of
    its delta4 contraction."""
    triples = _triples(n)
    gens = _generators(n)
    indices = range(1, n + 1)
    fixed = {}
    for _, _, fixed_groups, _, _ in _DERIV_SLOTS:
        for t in triples:
            for j in indices:
                groups = fixed_groups(*t, j)
                if groups not in fixed:
                    mat = _index_blade(n, groups[0])
                    for g in groups[1:]:
                        mat = mat * _index_blade(n, g)
                    fixed[groups] = mat
    table = _trace_table(fixed, dict(zip(indices, gens)))
    out = []
    for _, _, fixed_groups, pattern, _ in _DERIV_SLOTS:
        traces, deltas = {}, {}
        for t in triples:
            traces[t] = [
                (j, l, table[key])
                for j in indices for l in indices
                if (key := (fixed_groups(*t, j), l)) in table
            ]
            deltas[t] = [
                (j, l, d) for j in indices for l in indices if (d := _delta4(*pattern(*t, j, l)))
            ]
        out.append((traces, deltas))
    return out


def _sides(n, trials, deriv_trials, rng):
    """Both sides of every identity, trial by trial, from the tables.

    Yields (identity, lhs, rhs, mid, printed): the oracle side holds when
    the matrix trace lhs equals the algebraic contraction rhs, the printed
    side when mid (lhs, or a derivative slot's contraction) equals the
    paper's printed form.  The random data are drawn in a fixed order.
    """
    triples = _triples(n)
    trid = GaussRational(2 ** (n // 2))
    if trials:
        pair, square, joined = _algebraic_tables(n)
    for _ in range(trials):
        T = {t: _rand_scaled(rng) for t in triples}
        X = [_rand_scaled(rng) for _ in range(n)]
        Y = [_rand_scaled(rng) for _ in range(n)]
        gyx = GaussRational(_unscaled(sum(y * x for y, x in zip(Y, X)))) * trid
        t2 = GaussRational(_unscaled(sum(v * v for v in T.values()))) * trid

        # Tr(c(X) (c(T) + c(Y)))
        vec_x = {(i,): x for i, x in enumerate(X, 1)}
        t_or_y = dict(T)
        t_or_y.update(((i,), y) for i, y in enumerate(Y, 1))
        lhs = _contract(pair, vec_x, t_or_y)
        yield "trace_pair_vector", lhs, -gyx, lhs, -gyx
        # with c(e_i)^2 = -1 a grade-3 blade squares to +1, so the trace
        # of c(T)^2 is +sum(T^2)*tr(id); the printed form has -sum(T^2)
        lhs = _contract(square, T, T)
        yield "trace_torsion_square", lhs, t2, lhs, -t2
        for word, _, _, _, oracle_units, printed_units in _JOINED:
            lhs = _contract(joined[word][0], T, T)
            yield (f"contraction_joined_{word}", lhs, t2 * oracle_units, lhs,
                   t2 * printed_units)

    if deriv_trials:
        tables = _deriv_tables(n)
    # covariant-derivative contractions with free connection scalars
    for _ in range(deriv_trials):
        T = {t: _rand_scaled(rng) for t in triples}
        w = [
            [[_rand_scaled(rng) for _ in range(n + 1)] for _ in range(n + 1)]
            for _ in range(n + 1)
        ]  # w[j][x][l] = <nabla_j e_x, e_l>, 1-based
        for (ident, pos, _, _, printed), (traces, deltas) in zip(_DERIV_SLOTS, tables):
            re = im = rhs = 0
            for t, v in T.items():
                if not v:
                    continue
                wx = [w[j][t[pos]] for j in range(n + 1)]
                for j, l, (er, ei) in traces[t]:
                    c = v * wx[j][l]
                    if er:
                        re += c * er
                    if ei:
                        im += c * ei
                rhs += v * sum(wx[j][l] * d for j, l, d in deltas[t])
            rhs = _unscaled(rhs)
            yield (ident, GaussRational(_unscaled(re), _unscaled(im)),
                   GaussRational(rhs) * trid, rhs, _unscaled(printed(T, w, n)))


def verify_trace_lemmas(n, trials, seed=0, deriv_trials=None):
    """Exact trace-identity verification against the matrix oracle.

    Returns a list of record dicts: identity id, dimension, trials, status
    for the algebraic contraction form, status for the printed closed form,
    and a counterexample rendering when a side disagrees.

    deriv_trials sizes the covariant-derivative contraction block
    separately (defaults to trials; 0 skips those records).

    Every left-hand side is a sum over matrix traces tabulated once per
    dimension and process; the joined contractions' entries
    Tr(c_a c_b c_c c_d) are also checked one by one against
    tr(id) delta4(a, b, c, d).
    """
    if deriv_trials is None:
        deriv_trials = trials
    named = (("trials", trials), ("deriv_trials", deriv_trials))
    for name, count in named:
        check_int(name, count, nonnegative=True)
    _generators(n)  # rejects an unsupported n before any trial
    for name, count in named:
        check_lemma_budget(n, count, name)
    counts = dict.fromkeys(_ALGEBRAIC_IDENTITIES, trials)
    if deriv_trials:
        counts.update((slot[0], deriv_trials) for slot in _DERIV_SLOTS)
    state = {ident: [True, True, None] for ident in counts}
    if trials:
        for word, (_, mismatch) in _algebraic_tables(n)[2].items():
            if mismatch:
                st = state[f"contraction_joined_{word}"]
                st[0], st[2] = False, mismatch

    for ident, lhs, rhs, mid, printed in _sides(n, trials, deriv_trials, random.Random(seed)):
        # the text of the first failing side becomes the counterexample
        st = state[ident]
        for side, ok in ((0, lhs == rhs), (1, mid == printed)):
            if not ok:
                st[side] = False
                st[2] = st[2] or _TEXTS[ident][side].format(
                    lhs=lhs, rhs=rhs, mid=mid, printed=printed)

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


def connection_and_E(nf):
    """Connection coefficients and the reconstructed endomorphism block, B +
    divX/4 + the products of E - B, its jet summands 1/2 (c_j dW_j + dW_j c_j).
    nf must be a LaplaceNormalForm (ValidationError, field nf)."""
    if not isinstance(nf, LaplaceNormalForm):
        raise ValidationError("nf", f"expected a LaplaceNormalForm, got {type(nf).__name__}")
    omega, divx, pairs = _connection_parts(nf.geo, nf.Ai)
    for j, dw in enumerate(nf.jets, 1):
        half = CliffordElement.generator(nf.dim, nf.alphabet, j).scale(Fraction(1, 2))
        pairs += [(half, dw), (dw, half)]
    scalar = CliffordElement.scalar(nf.dim, nf.alphabet, divx)
    return omega, nf.B + scalar + nf.B._products_sum(pairs)


def constant_value(p):
    """The value of a constant ParamPoly (errors if non-constant)."""
    if not p.is_constant():
        raise ValueError("polynomial is not constant")
    return p.terms.get((), GR_ZERO)


def poly_params(p):
    """The parameter names a ParamPoly uses."""
    return {name for mono in p.terms for name, _ in mono}


def poly_eval(p, assignment):
    """Exact value of a ParamPoly; assignment must cover every parameter used."""
    total = GR_ZERO
    for mono, coeff in p.terms.items():
        val = coeff
        for name, exp in mono:
            if name not in assignment:
                raise UnboundParameter(name)
            val = val * GaussRational.from_value(assignment[name]) ** exp
        total = total + val
    return total


def to_complex(z):
    """Float approximation of a GaussRational."""
    return complex(z.re) + 1j * complex(z.im)


def eval_exact(f, x):
    """Exact value of a HalfPlaneRational at a GaussRational x off the poles."""
    out = ParamPoly.zero(f.alphabet)
    for (sign, k), c in f.terms.items():
        out = out + c * (x ** k if not sign else (x - GaussRational(0, sign)) ** -k)
    return out


def numeric_fn(f, assignment):
    """Float-valued callable of a HalfPlaneRational, for quadrature checks."""
    coeffs = [to_complex(poly_eval(c, assignment)) for c in f.num]
    a, b = f.a, f.b

    def value(x):
        num = 0j
        for c in reversed(coeffs):
            num = num * x + c
        return num / ((x - 1j) ** a * (x + 1j) ** b)

    return value
