"""Symbol calculus in a collar neighbourhood of the boundary.

Scalar symbols live in a formal differential ring XiExpr generated by the
normal covariable xi_n, the full quadratic form u = |xi|^2, the tangential
quadratic form w, the conformal factor h of the collar metric, and explicit
tangential covariables.  The normal x-derivative acts through the first-jet
parameter hp0 (the normal derivative of h at the base point); tangential
x-derivatives vanish at the base point.

CliffXi couples XiExpr coefficients to Clifford blades with twist labels,
and SymbolExpansion stacks CliffXi pieces by homogeneity order.  On top of
this the module provides the operator symbol, formal composition and the
parametrix recursion, and the symbols of the relevant operator power.  The
two recursions keep every symbol in the integer kernel's form over one table
of int (jet key, monomial) ids (exact.KeyTable) and one denominator, their
derivatives integer id maps (_images, _nth), and pause the cyclic collector.
Each returns its orders in that form with its table's decode list
(_carried); the CliffXi pieces are built and reduced on the first read
(_built), and a recursion handed such a result re-keys its forms into its
own table (_chains) instead of building them.  `*` is the core's
all-pairs product (exact.SparseTerms); a factor c u^k is a shift of the u
power and a scalar (_times_u_power).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import factorial, lcm
from types import MappingProxyType

from .clifford import Blades, CliffordElement, add_blade_products
from .errors import AlphabetMismatch, DimMismatch, NonCanonicalInput, ValidationError, check_int
from .exact import (
    GR_I, GaussRational, KeyTable, ParamPoly, SparseTerms, _merge_monomials,
    _new, _poly, _reduced, collector_paused,
)
from .geometry import _rational, check_nbar, k_vectors, twist_vector
from .halfplane import HalfPlaneRational

# key layout: (m, p, q, r, tang) for xi_n^m u^p w^q h^r * prod xi_j^e
# with tang a sorted tuple of (j, e) pairs over tangential indices j.


class XiExpr(SparseTerms):
    """Scalar symbol in the collar jet ring."""

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms=None):
        self.alphabet = alphabet
        clean = {}
        for key, coeff in (terms or {}).items():
            if not isinstance(coeff, ParamPoly):
                coeff = ParamPoly.const(alphabet, coeff)
            if coeff.is_zero():
                continue
            clean[key] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet, {})

    @classmethod
    def monomial(cls, alphabet, m=0, p=0, q=0, r=0, tang=(), coeff=1):
        return cls(alphabet, {(m, p, q, r, tuple(sorted(tang))): coeff})

    @classmethod
    def const(cls, alphabet, value):
        return cls.monomial(alphabet, coeff=value)

    @classmethod
    def u_power(cls, alphabet, p):
        return cls.monomial(alphabet, p=p)

    @staticmethod
    def _key_mul(k1, k2):
        m1, p1, q1, r1, t1 = k1
        m2, p2, q2, r2, t2 = k2
        return (m1 + m2, p1 + p2, q1 + q2, r1 + r2, _merge_monomials(t1, t2)), 1

    __mul__ = SparseTerms.__mul__

    def d_xn(self):
        """Normal x-derivative to first jet order: brings down one hp0."""
        return self._stepped("xn").scale(ParamPoly.var(self.alphabet, "hp0"))

    def d_xin(self):
        """Derivative in the normal covariable."""
        return self._stepped("xin")

    def _stepped(self, step):
        return self._collect(
            (k, c * f) for jk, c in self.terms.items() for k, f in _images(step, jk) if f)

    def restrict_sphere(self):
        """Restriction to the tangential unit sphere: w = h = 1, u = 1 + xi_n^2.

        Monomials odd in some tangential covariable average to zero over the
        sphere and are dropped; surviving even tangential powers would need a
        genuine angular average and are rejected.
        """
        for *_, tang in self.terms:
            if tang and not any(e % 2 for _, e in tang):
                raise NonCanonicalInput(
                    "even tangential monomial requires angular averaging"
                )
        return HalfPlaneRational.zero(self.alphabet).plus(
            HalfPlaneRational.from_u_power(self.alphabet, m, p).scale(c)
            for (m, p, _q, _r, tang), c in self.terms.items() if not tang
        )

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            m, p, q, r, tang = key
            factors = []
            if m:
                factors.append(f"xin^{m}" if m > 1 else "xin")
            if p:
                factors.append(f"u^{p}")
            if q:
                factors.append(f"w^{q}" if q > 1 else "w")
            if r:
                factors.append(f"h^{r}" if r > 1 else "h")
            for j, e in tang:
                factors.append(f"xi{j}^{e}" if e > 1 else f"xi{j}")
            head = "*".join(factors) if factors else "1"
            parts.append(f"({self.terms[key]})*{head}")
        return " + ".join(parts)

    def __repr__(self):
        return f"XiExpr({self})"


class CliffXi(Blades):
    """Clifford-algebra-valued symbol: blades with twist labels over XiExpr."""

    __slots__ = ()

    coeff = XiExpr

    @classmethod
    def scalar(cls, dim, xe):
        return cls(dim, xe.alphabet, {(0, ()): xe})

    @classmethod
    def from_clifford(cls, elem):
        return cls(elem.dim, elem.alphabet, {
            key: XiExpr(elem.alphabet, {(0, 0, 0, 0, ()): poly})
            for key, poly in elem.terms.items()
        })

    def scale(self, factor):
        """Multiply every coefficient by a ParamPoly or an exact scalar."""
        return self._map(lambda c: c.scale(factor))

    def d_xn(self):
        return self._map(lambda c: c.d_xn())

    def d_xin(self, k=1):
        out = self
        for _ in range(check_int("k", k, nonnegative=True)):
            out = out._map(lambda c: c.d_xin())
        return out

    def restrict_sphere(self):
        """{(mask, label): HalfPlaneRational} on the tangential unit sphere."""
        return {key: c.restrict_sphere() for key, c in self.terms.items()}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (mask, label) in sorted(self.terms):
            blade = "*".join(f"c{j + 1}" for j in range(self.dim) if mask >> j & 1)
            tags = [blade] if blade else []
            tags.extend(label)
            head = "*".join(tags) if tags else "1"
            parts.append(f"[{self.terms[(mask, label)]}] {head}")
        return "  +  ".join(parts)

    def __repr__(self):
        return f"CliffXi({self})"


def _jet_key_product(k1, k2):
    """Product of two (jet key, monomial) keys."""
    return XiExpr._key_mul(k1[0], k2[0])[0], _merge_monomials(k1[1], k2[1])


def _times_u_power(x, c, k):
    """c u^k x for a CliffXi x and an exact scalar c: each jet key's u power
    shifted by k, each coefficient times c."""
    return x._map(lambda xe: xe._like(
        {(m, p + k, q, r, t): s for (m, p, q, r, t), poly in xe.terms.items()
         if not (s := poly * c).is_zero()}
    ))


def _images(step, jk):
    """The (jet key, int factor) images of the jet key jk under step: "xin"
    the xi_n-derivative, "xn" the x_n-derivative but its factor hp0, and "u"
    the division by u."""
    m, p, q, r, t = jk
    if step == "xin":
        return [((m - 1, p, q, r, t), m), ((m + 1, p - 1, q, r, t), 2 * p)]
    if step == "xn":
        return [((m, p - 1, q + 1, r, t), p), (jk, q + r)]
    return [((m, p - 1, q, r, t), 1)]


def _jet_form(cx, table):
    """The integer form (d, {blade key: terms (id, a, b)}) of a CliffXi: (a +
    b*i) / d times the (jet key, monomial) key of id in table."""
    d = lcm(*[g.d for xe in cx.terms.values() for poly in xe.terms.values()
              for g in poly.terms.values()])
    return d, {key: [(table[jk, mono], g.a * (d // g.d), g.b * (d // g.d))
                     for jk, poly in xe.terms.items() for mono, g in poly.terms.items()]
               for key, xe in cx.terms.items()}


def _summed_form(acc):
    """The integer form of an add_blade_products accumulator, less what cancelled."""
    d, blades = acc
    return d, {key: terms for key, sums in blades.items()
               if (terms := [(i, a, b) for i, (a, b) in sums.items() if a or b])}


def _nth(chain, k, table, step):
    """The k-th form of chain, a list from form 0, each form the last one's
    image under step over its denominator: the int-factor images of each id
    (an x_n-derivative's monomial times hp0), memoized in table.steps, merged
    per blade in one map."""
    memo, key_of = table.steps.setdefault(step, {}), table.key_of
    while len(chain) <= k:
        d, form = chain[-1]
        blades = {}
        for key, terms in form.items():
            sums = blades[key] = {}
            for i, a, b in terms:
                got = memo.get(i)
                if got is None:
                    jk, mono = key_of[i]
                    mono = _merge_monomials(mono, (("hp0", 1),)) if step == "xn" else mono
                    got = memo[i] = [(table[jk, mono], f) for jk, f in _images(step, jk) if f]
                for j, f in got:
                    s = sums.setdefault(j, [0, 0])
                    s[0] += a * f
                    s[1] += b * f
        chain.append(_summed_form((d, blades)))
    return chain[k]


def _built(dim, alphabet, form, keys):
    """The CliffXi of an integer form, ids decoded by keys, built unvalidated."""
    d, form = form
    terms = {}
    for key, ts in form.items():
        jets = {}
        for i, a, b in ts:
            jk, mono = keys[i]
            jets.setdefault(jk, {})[mono] = _reduced(a, b, d)
        xe = terms[key] = _new(XiExpr)
        xe.alphabet, xe.terms = alphabet, {jk: _poly(alphabet, t) for jk, t in jets.items()}
    out = _new(CliffXi)
    out.dim, out.alphabet, out.terms = dim, alphabet, terms
    return out


def _carried(dim, alphabet, forms, keys, meta=None):
    """A SymbolExpansion that carries the nonzero integer forms {order: form},
    ids decoded by keys, and builds their CliffXi pieces on first read."""
    out = SymbolExpansion(dim, alphabet, None, meta)
    out._orders, out._keys = {o: f for o, f in forms.items() if f[1]}, keys
    return out


def _chains(x, table, low, high):
    """The derivative chains (_nth) of x's orders in low..high, each begun
    with the order's integer form over table: a carried form re-keyed, one
    table lookup per distinct id; a built piece by _jet_form."""
    forms = {o: f for o, f in x._orders.items() if low <= o <= high}
    if x._keys is None:
        return {o: [_jet_form(c, table)] for o, c in forms.items()}
    ids = {i for _, form in forms.values() for ts in form.values() for i, _, _ in ts}
    ids = {i: table[x._keys[i]] for i in ids}
    return {o: [(d, {key: [(ids[i], a, b) for i, a, b in ts] for key, ts in form.items()})]
            for o, (d, form) in forms.items()}


class SymbolExpansion:
    """Finite stack of homogeneous CliffXi pieces, keyed by order.

    A recursion's result carries its orders' integer forms and its call's
    decode list instead (_carried): the first read of orders builds the
    pieces and drops both, and so does assigning orders.
    """

    __slots__ = ("dim", "alphabet", "_orders", "_keys", "meta")

    def __init__(self, dim, alphabet, orders=None, meta=None):
        self.dim = check_int("dim", dim)
        if meta is not None and not isinstance(meta, Mapping):
            raise ValidationError("meta", f"expected a mapping or None, got {type(meta).__name__}")
        self.alphabet = alphabet
        orders = orders or {}
        if not isinstance(orders, (dict, MappingProxyType)) or any(
                type(o) is not int or not isinstance(c, CliffXi) for o, c in orders.items()):
            raise ValidationError("orders", "expected a map from int orders to CliffXi pieces")
        self.orders = {o: c for o, c in orders.items() if not c.is_zero()}
        for c in self.orders.values():
            if c.dim != dim:
                raise DimMismatch(f"dim-{c.dim} piece in a dim-{dim} expansion")
            if c.alphabet is not alphabet and c.alphabet != alphabet:
                raise AlphabetMismatch("piece over another alphabet than its expansion")
        self.meta = MappingProxyType(dict(meta or {}))

    @property
    def orders(self):
        if self._keys is not None:
            dim, alphabet, keys = self.dim, self.alphabet, self._keys
            self.orders = {o: _built(dim, alphabet, f, keys) for o, f in self._orders.items()}
        return self._orders

    @orders.setter
    def orders(self, orders):
        self._orders, self._keys = orders, None

    def __getitem__(self, order):
        got = self.orders.get(order)
        return got if got is not None else CliffXi.zero(self.dim, self.alphabet)

    def __contains__(self, order):
        return order in self.orders

    def items(self):
        return sorted(self.orders.items(), reverse=True)


def laplace_symbol(dim, alphabet, b_term=None, gdn=None):
    """Symbol (orders 2, 1, 0) of the generalized Laplacian on the collar.

    b_term is the zero-order block, a CliffordElement or None (the operator
    is written as a metric Laplacian plus first-order drift minus b_term).
    gdn is the scalar multiplying i*xi_n in the subleading symbol; by
    default it is the collar value dim/2 * hp0.
    """
    check_int("dim", dim)
    if b_term is not None and not isinstance(b_term, CliffordElement):
        raise ValidationError(
            "b_term", f"expected a CliffordElement or None, got {type(b_term).__name__}"
        )
    if gdn is None:
        gdn = ParamPoly.var(alphabet, "hp0") * Fraction(dim, 2)
    elif not isinstance(gdn, ParamPoly):
        value = gdn if isinstance(gdn, GaussRational) else _rational("gdn", gdn)
        gdn = ParamPoly.const(alphabet, value)

    p2 = CliffXi.scalar(dim, XiExpr.u_power(alphabet, 1))

    w_elem = twist_vector(dim, alphabet)
    k_list = k_vectors(w_elem)

    # i * (X_j / 2 + K_j) xi_j for tangential j, with xi_n and the collar
    # term gdn for j = dim, the jet key written out directly
    pairs = [((0, ()), XiExpr(alphabet, {(1, 0, 0, 0, ()): gdn * GR_I}))]
    for j, k_j in enumerate(k_list, 1):
        jet = (0, 0, 0, 0, ((j, 1),)) if j < dim else (1, 0, 0, 0, ())
        drift = ParamPoly.var(alphabet, f"X_{j}") * Fraction(1, 2)
        pairs.append(((0, ()), XiExpr(alphabet, {jet: drift * GR_I})))
        pairs.extend(
            (key, XiExpr(alphabet, {jet: poly * GR_I})) for key, poly in k_j.terms.items()
        )
    p1 = CliffXi.zero(dim, alphabet)._collect(pairs)

    p0 = CliffXi.zero(dim, alphabet) if b_term is None else -CliffXi.from_clifford(b_term)

    meta = {"gdn": gdn, "K": tuple(k_list), "W": w_elem}
    return SymbolExpansion(dim, alphabet, {2: p2, 1: p1, 0: p0}, meta)


def _taylor(k):
    """(-i)^k / k!, the coefficient of the k-th normal composition term."""
    return (-GR_I) ** k / factorial(k)


def _check_expansion(field, value):
    """Refuse a value that is not a SymbolExpansion over an alphabet holding
    hp0, which the x_n-derivatives bring down."""
    if not isinstance(value, SymbolExpansion):
        raise ValidationError(field, f"expected a SymbolExpansion, got {type(value).__name__}")
    if "hp0" not in value.alphabet:
        raise AlphabetMismatch("the symbol recursions need hp0 in the alphabet")


@collector_paused
def compose_symbols(left, right, min_order):
    """Formal symbol product, collected by order down to min_order.

    Only the normal covariable contributes derivative terms: tangential
    x-derivatives vanish at the base point in the collar model.  Terms of
    order below min_order are never formed, and the xi_n- and x_n-derivative
    chains of the factors are built once per call, in the integer form.
    Each order's Taylor terms, their coefficients folded in, are summed in
    one map; all share one key table.  The result carries its orders in
    that form, built as CliffXi on first read.
    """
    _check_expansion("left", left)
    _check_expansion("right", right)
    check_int("min_order", min_order)
    if left.dim != right.dim:
        raise DimMismatch("symbol factors of different dimension")
    if left.alphabet != right.alphabet:
        raise AlphabetMismatch("symbol factors over different alphabets")
    accs, table = {}, KeyTable(_jet_key_product)
    # only the orders that reach min_order with the other factor's top order
    top_s, top_t = (max(x._orders, default=0) for x in (left, right))
    left_chains = _chains(left, table, min_order - top_t, top_s)
    right_chains = _chains(right, table, min_order - top_s, top_t)
    for s, left_chain in left_chains.items():
        for t, right_chain in right_chains.items():
            # the k-th term has order s - k + t
            for k in range(0, s + t - min_order + 1):
                dp = _nth(left_chain, k, table, "xin")
                if not dp[1]:
                    break
                dq = _nth(right_chain, k, table, "xn")
                if dq[1]:
                    add_blade_products(accs.setdefault(s - k + t, [1, {}]), dp, dq, table,
                                       _taylor(k))
    forms = {order: _summed_form(acc) for order, acc in accs.items()}
    return _carried(left.dim, left.alphabet, forms, table.key_of)


@collector_paused
def invert_symbol(symbol, depth):
    """Parametrix symbols q_{-2}, ..., q_{-2-depth} of a second-order symbol.

    The recursion divides by the leading symbol, which must be p_2 = u
    exactly (blade- and label-free, coefficient 1); any other p_2, or none,
    raises NonCanonicalInput, and so does a nonzero order outside 0..2,
    which the recursion would not read.  Each step sums its Taylor terms in
    one map (all over one key table, every symbol in the integer form), the
    division by u an id map.  The result carries its orders in that form,
    built as CliffXi on first read.
    """
    _check_expansion("symbol", symbol)
    check_int("depth", depth, nonnegative=True)
    unread = sorted(o for o in symbol._orders if not 0 <= o <= 2)
    if unread:
        raise NonCanonicalInput(f"parametrix recursion reads orders 0..2 only, not {unread}")
    table = KeyTable(_jet_key_product)
    p_chains = _chains(symbol, table, 0, 2)
    # p_2 = u in the integer form: one term, d/d times u's id
    d, p2 = p_chains[2][0] if 2 in p_chains else (1, None)
    if p2 != {(0, ()): [(table[(0, 1, 0, 0, ()), ()], d, 0)]}:
        raise NonCanonicalInput("parametrix recursion needs the leading symbol u")
    q_chains = {-2: [(1, {(0, ()): [(table[(0, -1, 0, 0, ()), ()], 1, 0)]})]}
    over_u = {}  # [d^k p_s / dxi_n^k, u^-1 times it], by (s, k)
    for m in range(1, depth + 1):
        # the new symbol q_{-2-m} is fixed by the vanishing of the
        # composition at order -m, where it enters through p_2 * q_{-2-m};
        # the k-th term of p_s * q_t lands there for t = k - m - s, and
        # q_{-2-m} is minus their sum, u^-1 taken on the left factors
        acc = [1, {}]
        for s, p_chain in p_chains.items():
            for k in range(max(0, s - 1), m + s - 1):
                dp = _nth(p_chain, k, table, "xin")
                if not dp[1]:
                    break
                dq = _nth(q_chains[k - m - s], k, table, "xn")
                if dq[1]:
                    dp = _nth(over_u.setdefault((s, k), [dp]), 1, table, "u")
                    add_blade_products(acc, dp, dq, table, -_taylor(k))
        q_chains[-2 - m] = [_summed_form(acc)]
    q = {t: chain[0] for t, chain in q_chains.items()}
    return _carried(symbol.dim, symbol.alphabet, q, table.key_of, symbol.meta)


def drift_subsymbol_parts(symbol):
    """Split of q_{-3} = -u^-2 p_1 - 2i hp0 xi_n w u^-3, the first subleading
    parametrix symbol of a laplace_symbol, into normal, drift, and twist pieces.

    Returns (b1, b2, b3).  b1 = -i gdn xi_n u^-2 - 2i hp0 xi_n w u^-3 is the
    collar normal-direction part.  The rest, b2 + b3 = -u^-2 (p_1 - i gdn xi_n),
    is read off p_1 by power_symbol's u-power rule (_times_u_power with c = -1,
    k = -2): b2, the scalar drift, is its label-free blade (0, ()), and b3,
    the twist coupling, the rest.
    """
    dim, alphabet = symbol.dim, symbol.alphabet
    minus_i = -GR_I
    collar = {(1, -2, 0, 0, ()): symbol.meta["gdn"] * minus_i}
    hp0 = ParamPoly.var(alphabet, "hp0")
    b1 = CliffXi.scalar(dim, XiExpr(alphabet, {**collar, (1, -3, 1, 0, ()): hp0 * (minus_i * 2)}))
    rest = _times_u_power(symbol[1], GaussRational(-1), -2)
    b2 = CliffXi.scalar(dim, rest.coefficient(0) - XiExpr(alphabet, collar))
    b3 = rest._like({key: xe for key, xe in rest.terms.items() if key != (0, ())})
    return b1, b2, b3


def power_symbol(symbol, nbar, parametrix=None):
    """Leading and subleading symbols of the relevant operator power.

    nbar is the boundary dimension: even, in 2..10, and dim - 2 for the
    operator's dimension dim.  Returns a SymbolExpansion with orders
    2 - nbar and 1 - nbar; meta carries the split of the subleading symbol
    into normal / drift / twist parts, each times (nbar - 2)/2 u^(2 - nbar/2)
    by the u-power rule that reads the split off p_1 (_times_u_power).
    """
    check_nbar(nbar)
    dim, alphabet = symbol.dim, symbol.alphabet
    if dim != nbar + 2:
        raise DimMismatch(f"operator dimension {dim} != nbar + 2 = {nbar + 2}")
    half = nbar // 2
    top = CliffXi.scalar(dim, XiExpr.u_power(alphabet, 1 - half))

    if parametrix is None:
        parametrix = invert_symbol(symbol, 1)
    _check_expansion("parametrix", parametrix)

    b1, b2, b3 = drift_subsymbol_parts(symbol)
    if b1.plus((b2, b3)) != parametrix[-3]:
        raise NonCanonicalInput("subleading power symbol split is inconsistent")

    # correction sum from composing leading parametrix factors: each k < half - 2
    # adds -i d_xin(u^(k+2-half)) d_xn(u^-1) u^-k = 2i (k+2-half) hp0 xi_n w u^(-1-half)
    ksum = CliffXi.scalar(dim, XiExpr.monomial(
        alphabet, m=1, p=-1 - half, q=1,
        coeff=ParamPoly.var(alphabet, "hp0") * GaussRational(0, (2 - half) * (half - 1)),
    ))

    factor = GaussRational(Fraction(nbar - 2, 2))
    normal, drift, twist = (_times_u_power(b, factor, 2 - half) for b in (b1, b2, b3))
    parts = {"normal": normal + ksum, "drift": drift, "twist": twist}
    sub = parts["normal"].plus((drift, twist))
    meta = {**symbol.meta, "parts": MappingProxyType(parts)}
    return SymbolExpansion(dim, alphabet, {2 - nbar: top, 1 - nbar: sub}, meta)
