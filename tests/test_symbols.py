"""Symbol calculus: jet ring, operator symbol, inversion, composition."""

import gc
import json
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial, gcd

import pytest
import sympy

from ncresidue import clifford, exact, load_config, symbols
from ncresidue.boundary import SphereSymbol
from ncresidue.clifford import CliffordElement, represent
from ncresidue.errors import (
    AlphabetMismatch,
    DimMismatch,
    NonCanonicalInput,
    OddBarDimension,
    ValidationError,
)
from ncresidue.exact import GR_I, Alphabet, GaussRational, ParamPoly, SparseTerms
from ncresidue.geometry import (
    GeometricBundle,
    lichnerowicz_normal_form,
    standard_alphabet,
    twist_vector,
)
from ncresidue.oracle import constant_value
from ncresidue.symbols import (
    CliffXi,
    SymbolExpansion,
    XiExpr,
    compose_symbols,
    drift_subsymbol_parts,
    invert_symbol,
    laplace_symbol,
    power_symbol,
)
from conftest import cliffxi_scalars, rand_assignment


def subs_xi(xe, assignment):
    out = XiExpr.zero(xe.alphabet)
    for mono, poly in xe.terms.items():
        out = out + XiExpr(xe.alphabet, {mono: poly.subs(assignment)})
    return out


def subs_cliffxi(cx, assignment):
    return CliffXi(
        cx.dim,
        cx.alphabet,
        {key: subs_xi(xe, assignment) for key, xe in cx.terms.items()},
    )


def subs_expansion(expansion, assignment):
    return SymbolExpansion(
        expansion.dim,
        expansion.alphabet,
        {r: subs_cliffxi(cx, assignment) for r, cx in expansion.orders.items()},
    )


def numeric_operator(n):
    """Operator symbol with every parameter replaced by a fixed rational."""
    al = standard_alphabet(n)
    nf = lichnerowicz_normal_form(GeometricBundle(n))
    op = laplace_symbol(n, al, b_term=nf.B)
    return subs_expansion(op, rand_assignment(al, random.Random(20 + n), span=3))


# Reference loops for the symbol recursions: every derivative is rebuilt
# from scratch, every term of every order is formed and the ones below
# min_order are dropped afterwards, and the pieces are summed one by one.
# Their derivatives are the collar model's, written out here term by term,
# so that they do not share the engine's derivative rule.
def _derivative_reference(cx, pieces):
    def one(xe):
        out = XiExpr.zero(xe.alphabet)
        for (m, p, q, r, tang), c in xe.terms.items():
            for key, f in pieces(m, p, q, r, tang):
                out = out + XiExpr(xe.alphabet, {key: c * f})
        return out

    return CliffXi(cx.dim, cx.alphabet, {key: one(xe) for key, xe in cx.terms.items()})


def _dxin_reference(cx, k):
    # d/dxi_n of xi_n^m u^p, u = xi_n^2 + w: m xi_n^(m-1) u^p + 2p xi_n^(m+1) u^(p-1)
    for _ in range(k):
        cx = _derivative_reference(cx, lambda m, p, q, r, t: [
            ((m - 1, p, q, r, t), m), ((m + 1, p - 1, q, r, t), 2 * p)])
    return cx


def _dxn_power_reference(c, k, cache):
    # d/dx_n at x_n = 0 of u^p w^q h^r with h = exp(hp0 x_n), w = h |xi'|^2:
    # each of u, w and h brings down hp0, and u's derivative is hp0 w
    got = cache.get(k)
    if got is None:
        got = c
        if k:
            hp0 = ParamPoly.var(c.alphabet, "hp0")
            got = _derivative_reference(
                _dxn_power_reference(c, k - 1, cache), lambda m, p, q, r, t: [
                    ((m, p - 1, q + 1, r, t), hp0 * p), ((m, p, q, r, t), hp0 * q),
                    ((m, p, q, r, t), hp0 * r)])
        cache[k] = got
    return got


def _compose_reference(left, right, min_order):
    out = {}
    right_caches = {t: {0: q} for t, q in right.orders.items()}
    for s, p in left.orders.items():
        for t, q in right.orders.items():
            for k in range(0, s - min_order - t + 1):
                dp = _dxin_reference(p, k)
                if dp.is_zero():
                    break
                dq = _dxn_power_reference(q, k, right_caches[t])
                if dq.is_zero():
                    continue
                order = s - k + t
                if order < min_order:
                    continue
                coeff = (GR_I * (-1)) ** k * Fraction(1, factorial(k))
                piece = (dp * dq).scale(coeff)
                acc = out.get(order)
                out[order] = piece if acc is None else acc + piece
    return SymbolExpansion(left.dim, left.alphabet, out)


def _invert_reference(symbol, depth):
    dim, alphabet = symbol.dim, symbol.alphabet
    u_inv = CliffXi.scalar(dim, XiExpr.u_power(alphabet, -1))
    q = {-2: u_inv}
    caches = {-2: {0: u_inv}}
    for m in range(1, depth + 1):
        acc = CliffXi.zero(dim, alphabet)
        for s in (2, 1, 0):
            p = symbol[s]
            if p.is_zero():
                continue
            for k in range(0, m + 3):
                t = -m - s + k
                if t not in q:
                    continue
                dp = _dxin_reference(p, k)
                if dp.is_zero():
                    continue
                dq = _dxn_power_reference(q[t], k, caches[t])
                if dq.is_zero():
                    continue
                coeff = (GR_I * (-1)) ** k * Fraction(1, factorial(k))
                acc = acc + (dp * dq).scale(coeff)
        q[-2 - m] = -(u_inv * acc)
        caches[-2 - m] = {0: q[-2 - m]}
    return SymbolExpansion(dim, alphabet, q)


def _laplace_k_reference(dim, alphabet):
    """K_j = c_j W + W c_j as two Clifford products and their sum."""
    w_elem = twist_vector(dim, alphabet)
    return [
        (c := CliffordElement.generator(dim, alphabet, j)) * w_elem + w_elem * c
        for j in range(1, dim + 1)
    ]


def _laplace_p1_reference(dim, alphabet, gdn):
    """First-order symbol built blade term by blade term: each K_j xi_j is a
    product of one-term jet expressions, and the sum grows term by term."""
    k_list = _laplace_k_reference(dim, alphabet)
    p1 = CliffXi.zero(dim, alphabet)
    for j in range(1, dim + 1):
        if j < dim:
            xi_j = XiExpr.monomial(alphabet, tang=((j, 1),))
        else:
            xi_j = XiExpr.monomial(alphabet, m=1)
        drift = ParamPoly.var(alphabet, f"X_{j}") * Fraction(1, 2)
        p1 = p1 + CliffXi.scalar(dim, xi_j.scale(drift))
        p1 = p1 + SparseTerms.scale(CliffXi.from_clifford(k_list[j - 1]), xi_j)
    p1 = p1 + CliffXi.scalar(dim, XiExpr.monomial(alphabet, m=1, coeff=gdn))
    return p1.scale(GR_I)


def _drift_parts_reference(symbol):
    """The split of q_{-3} built term by term: b1 as two monomials, b2 and
    b3 from the X_j and the K_j of meta, each times xi_j u^-2 as a product
    of jet expressions, summed one covariable j at a time."""
    dim, alphabet = symbol.dim, symbol.alphabet
    hp0 = ParamPoly.var(alphabet, "hp0")
    minus_i = -GR_I
    b1 = CliffXi.scalar(
        dim, XiExpr.monomial(alphabet, m=1, p=-2, coeff=symbol.meta["gdn"] * minus_i)
    ) + CliffXi.scalar(
        dim, XiExpr.monomial(alphabet, m=1, p=-3, q=1, coeff=hp0 * (minus_i * 2))
    )
    b2 = b3 = CliffXi.zero(dim, alphabet)
    u2 = XiExpr.u_power(alphabet, -2)
    for j in range(1, dim + 1):
        if j < dim:
            xi_j = XiExpr.monomial(alphabet, tang=((j, 1),))
        else:
            xi_j = XiExpr.monomial(alphabet, m=1)
        xj = ParamPoly.var(alphabet, f"X_{j}")
        b2 = b2 + CliffXi.scalar(dim, (u2 * xi_j).scale(xj * (minus_i * Fraction(1, 2))))
        k_j = CliffXi.from_clifford(symbol.meta["K"][j - 1])
        b3 = b3 + SparseTerms.scale(k_j, (u2 * xi_j).scale(minus_i))
    return b1, b2, b3


def _power_ksum_reference(dim, alphabet, half):
    """The correction sum of power_symbol, one composed term per k."""
    def scalar(xe):
        return CliffXi.scalar(dim, xe)

    ksum = CliffXi.zero(dim, alphabet)
    du_inv = _dxn_power_reference(scalar(XiExpr.u_power(alphabet, -1)), 1, {}).coefficient(0)
    for k in range(0, half - 2):
        dxi = _dxin_reference(scalar(XiExpr.monomial(alphabet, p=k + 2 - half)), 1).coefficient(0)
        term = dxi * du_inv * XiExpr.u_power(alphabet, -k)
        ksum = ksum + CliffXi.scalar(dim, term.scale(-GR_I))
    return ksum


def assert_normal_scalars(expansion):
    """Every scalar of every order is a GaussRational (a + b*i) / d with
    d > 0 and gcd(a, b, d) = 1."""
    for piece in expansion.orders.values():
        for g in cliffxi_scalars(piece):
            assert type(g) is GaussRational and g.d > 0 and gcd(g.a, g.b, g.d) == 1


def assert_same_expansion(got, expected):
    assert sorted(got.orders) == sorted(expected.orders)
    for order, piece in expected.orders.items():
        assert got[order] == piece, f"order {order} differs"


class TestJetRing:
    def test_u_restricts_to_one_plus_xi_square(self):
        al = standard_alphabet(4)
        u = XiExpr.u_power(al, 1)
        f = u.restrict_sphere()
        assert [constant_value(p).re for p in f.num] == [1, 0, 1]

    def test_normal_jet_of_u(self):
        # d/dx_n of u picks up hp0 * w; on the sphere that is the constant hp0
        al = standard_alphabet(4)
        f = XiExpr.u_power(al, 1).d_xn().restrict_sphere()
        assert (f.a, f.b) == (0, 0)
        assert f.num[0] == ParamPoly.var(al, "hp0")

    def test_xi_derivative_of_u(self):
        al = standard_alphabet(4)
        got = XiExpr.u_power(al, 2).d_xin()
        expected = XiExpr.monomial(al, m=1, p=1, coeff=4)
        assert got == expected

    def test_odd_tangential_power_drops(self):
        al = standard_alphabet(4)
        xe = XiExpr.monomial(al, m=1, tang=((1, 1),))
        assert xe.restrict_sphere().is_zero()

    def test_even_tangential_power_rejected(self):
        al = standard_alphabet(4)
        xe = XiExpr.monomial(al, tang=((1, 2),))
        with pytest.raises(NonCanonicalInput):
            xe.restrict_sphere()


class TestDerivativeOrders:
    @pytest.mark.parametrize("k", [-1, True, 1.5], ids=["negative", "bool", "float"])
    def test_covariable_derivatives_refuse_bad_orders(self, k):
        # CliffXi.d_xin(-1) returned the symbol, d_xin(True) ran once, and
        # d_xin(1.5) raised a raw TypeError; SphereSymbol.deriv goes through
        # HalfPlaneRational.deriv, and also refuses on a zero symbol
        al = standard_alphabet(4)
        cx = CliffXi.scalar(4, XiExpr.u_power(al, -1))
        for f in (cx.d_xin, SphereSymbol.from_cliffxi(cx).deriv,
                  SphereSymbol.zero(4, al).deriv, CliffXi.zero(4, al).d_xin):
            with pytest.raises(ValidationError):
                f(k)
        assert cx.d_xin(0) == cx
        assert cx.d_xin(2) == cx.d_xin(1).d_xin(1)


class TestOperatorSymbol:
    def test_orders_and_leading_term(self):
        al = standard_alphabet(4)
        op = laplace_symbol(4, al)
        assert set(op.orders) == {2, 1}
        assert op[2] == CliffXi.scalar(4, XiExpr.u_power(al, 1))
        assert op[0].is_zero()

    def test_first_order_carries_drift_and_twist(self):
        al = standard_alphabet(6)
        op = laplace_symbol(6, al)
        labels = set()
        for (_, label) in op[1].terms:
            labels.add(label)
        assert () in labels and ("phi",) in labels

    def test_collar_scalar_default(self):
        # the normal-direction scalar defaults to (dim/2) * hp0
        al = standard_alphabet(4)
        op = laplace_symbol(4, al)
        assert op.meta["gdn"] == ParamPoly.var(al, "hp0") * ParamPoly.const(al, 2)

    @pytest.mark.parametrize("n, gdn", [(2, None), (4, None), (6, None), (6, 3), (4, 0)])
    def test_first_order_equals_reference_construction(self, n, gdn):
        al = standard_alphabet(n)
        op = laplace_symbol(n, al, gdn=gdn)
        assert list(op.meta["K"]) == _laplace_k_reference(n, al)
        assert op[1] == _laplace_p1_reference(n, al, op.meta["gdn"])


class TestInversionAndComposition:
    def test_leading_inverse(self):
        al = standard_alphabet(4)
        op = laplace_symbol(4, al)
        par = invert_symbol(op, 1)
        assert par[-2] == CliffXi.scalar(4, XiExpr.u_power(al, -1))

    def test_symbolic_closure_shallow(self):
        al = standard_alphabet(4)
        op = laplace_symbol(4, al)
        comp = compose_symbols(op, invert_symbol(op, 2), -1)
        assert comp[0] == CliffXi.scalar(4, XiExpr.const(al, 1))
        assert comp[-1].is_zero()

    @pytest.mark.parametrize("n", [4, 6])
    def test_numeric_closure_depth_two(self, n):
        num = numeric_operator(n)
        comp = compose_symbols(num, invert_symbol(num, 3), -1)
        assert comp[0] == CliffXi.scalar(n, XiExpr.const(num.alphabet, 1))
        assert comp[-1].is_zero()

    @pytest.mark.parametrize("depth", [-1, -3, True, False, 2.0, "2", None])
    def test_inversion_rejects_non_integer_or_negative_depth(self, depth):
        op = laplace_symbol(4, standard_alphabet(4))
        with pytest.raises(ValidationError):
            invert_symbol(op, depth)

    @pytest.mark.parametrize("min_order", [True, 1.5, "-2", None])
    def test_composition_rejects_non_integer_min_order(self, min_order):
        op = laplace_symbol(4, standard_alphabet(4))
        with pytest.raises(ValidationError):
            compose_symbols(op, op, min_order)

    def test_composition_refuses_factors_over_different_alphabets(self):
        # the kernel skips the operands' checks, so such factors composed
        # silently under the left alphabet; `*` raises, and so must this
        al = standard_alphabet(4)
        op = laplace_symbol(4, al)
        other = laplace_symbol(4, Alphabet([*al.names, "extra"]))
        for left, right in ((op, other), (other, op)):
            with pytest.raises(AlphabetMismatch):
                compose_symbols(left, right, -1)

    @pytest.mark.parametrize("dim, names, error", [(2, ["a"], DimMismatch),
                                                   (4, ["b"], AlphabetMismatch)])
    def test_expansion_refuses_pieces_of_another_dim_or_alphabet(self, dim, names, error):
        # compose_symbols checks only the declared dim and alphabet, so a
        # dim-2 piece over ["b"] in a dim-4 expansion over ["a"] composed into
        # a dim-4 result whose coefficient held b
        al = Alphabet(["a"])
        other = Alphabet(names)
        piece = CliffXi.scalar(dim, XiExpr.u_power(other, 1)).scale(
            ParamPoly.var(other, names[0]))
        with pytest.raises(error):
            SymbolExpansion(4, al, {0: piece})
        u = SymbolExpansion(4, al, {2: CliffXi.scalar(4, XiExpr.u_power(al, 1))})
        assert u[2].dim == 4 and u[2].alphabet is al
        assert SymbolExpansion(4, al, {0: CliffXi.zero(dim, other)}).orders == {}

    def test_depth_zero_gives_the_leading_inverse_only(self):
        al = standard_alphabet(4)
        par = invert_symbol(laplace_symbol(4, al), 0)
        assert par.orders == {-2: CliffXi.scalar(4, XiExpr.u_power(al, -1))}

    @pytest.mark.parametrize("leading", ["twice u", "missing"])
    def test_inversion_rejects_other_leading_symbols(self, leading):
        # the recursion divides by p_2 = u, so it must refuse any other p_2
        al = standard_alphabet(4)
        op = laplace_symbol(4, al)
        orders = {1: op[1]}
        if leading == "twice u":
            orders[2] = op[2].scale(GaussRational(2))
        with pytest.raises(NonCanonicalInput):
            invert_symbol(SymbolExpansion(4, al, orders), 1)


# The collar model in closed form: h = exp(hp0 x_n), w = h |xi'|^2 and
# u = xi_n^2 + w, whose derivatives are exactly those of the jet ring.
XN, XIN = sympy.symbols("x_n xi_n")


def sympy_poly(poly):
    return sum(
        (sympy.Rational(c.a, c.d) + sympy.I * sympy.Rational(c.b, c.d))
        * sympy.Mul(*(sympy.Symbol(name) ** e for name, e in mono))
        for mono, c in poly.terms.items()
    )


def sympy_symbol(expansion):
    """Sum of all orders of a label-free expansion as a sympy matrix over
    the collar model, blades taken through their matrices."""
    n, al = expansion.dim, expansion.alphabet
    xit = sympy.symbols(f"xi_1:{n}")
    h = sympy.exp(sympy.Symbol("hp0") * XN)
    w = h * sum(x**2 for x in xit)
    size = 2 ** (n // 2)
    out = sympy.zeros(size, size)
    for piece in expansion.orders.values():
        for key, xe in piece.terms.items():
            blade = represent(CliffordElement(n, al, {key: ParamPoly.one(al)}))
            matrix = sympy.Matrix(size, size, lambda i, j: sympy_poly(
                blade.rows[i].get(j, ParamPoly.zero(al))))
            scalar = sum(
                sympy_poly(c) * XIN**m * (XIN**2 + w) ** p * w**q * h**r
                * sympy.Mul(*(xit[j - 1] ** e for j, e in tang))
                for (m, p, q, r, tang), c in xe.terms.items()
            )
            out += scalar * matrix
    return out


def composed_by_sympy(left, right):
    """Symbol e^{-ix.xi} P(Q e^{ix.xi}) of the product of two differential
    operators at x_n = 0: the coefficient A_k(x) of xi_n^k in P acts as
    A_k (xi_n + D)^k on the symbol of Q, D = -i d/dx_n; Q does not depend
    on the tangential x."""
    p = sympy_symbol(left).applyfunc(sympy.expand)
    term = sympy_symbol(right)
    total = sympy.zeros(*term.shape)
    for k in range(max(sympy.degree(e, XIN) for e in p if e != 0) + 1):
        total += p.applyfunc(lambda e: e.coeff(XIN, k)) * term
        term = XIN * term - sympy.I * term.diff(XN)
    return total.subs(XN, 0)


def assert_composition_matches_sympy(left, right):
    got = sympy_symbol(compose_symbols(left, right, -8)).subs(XN, 0)
    assert (got - composed_by_sympy(left, right)).applyfunc(sympy.expand).is_zero_matrix


class TestCompositionAgainstCollarModel:
    """compose_symbols against the left-quantization product of differential
    operators on the exact collar model (Shubin, Pseudodifferential
    Operators and Spectral Theory, 1987, sec. 3), to all orders."""

    def test_blade_free_laplace_parts(self):
        al = standard_alphabet(4)
        op = laplace_symbol(4, al)
        orders = {o: CliffXi.scalar(4, c.terms[(0, ())]) for o, c in op.orders.items()}
        s = ParamPoly.var(al, "s")
        orders[0] = CliffXi.scalar(4, XiExpr.monomial(al, q=1, r=1, coeff=s))
        sym = SymbolExpansion(4, al, orders)
        assert_composition_matches_sympy(sym, sym)

    def test_non_commuting_blades(self):
        # c1 c2 = -c2 c1: the left factor's blades must stay on the left
        al = standard_alphabet(4)

        def blade(mask, **key):
            return CliffXi(4, al, {(mask, ()): XiExpr.monomial(al, **key)})

        x1, s = ParamPoly.var(al, "X_1"), ParamPoly.var(al, "s")
        left = SymbolExpansion(4, al, {
            2: blade(0, p=1),
            1: blade(1, m=1, r=1, coeff=x1) + blade(2, tang=((1, 1),)),
        })
        right = SymbolExpansion(4, al, {
            3: blade(1, m=1, q=1),
            2: blade(2, p=1),
            0: blade(3, r=1, coeff=s),
        })
        assert_composition_matches_sympy(left, right)


class TestRecursionAgainstReference:
    @pytest.mark.parametrize(
        "n, depth, numeric",
        [(4, 3, True), (6, 2, True), (4, 2, False), (6, 1, False), (4, 3, False)],
        ids=["numeric-n4-depth3", "numeric-n6-depth2", "symbolic-n4-depth2",
             "symbolic-n6-depth1", "symbolic-n4-depth3"],
    )
    def test_equal_to_reference_loops(self, n, depth, numeric):
        op = numeric_operator(n) if numeric else laplace_symbol(n, standard_alphabet(n))
        inverse = invert_symbol(op, depth)
        assert_same_expansion(inverse, _invert_reference(op, depth))
        assert_normal_scalars(inverse)
        for min_order in (-1, -2, -3):
            composed = compose_symbols(op, inverse, min_order)
            assert_same_expansion(composed, _compose_reference(op, inverse, min_order))
            assert_normal_scalars(composed)

    def test_composition_builds_only_kept_normal_derivatives(self, monkeypatch):
        # the reference loop takes 8 x_n-derivatives here; 3 reach order -2
        num = numeric_operator(4)
        inverse = invert_symbol(num, 3)
        built, nth = [], symbols._nth

        def counted(chain, k, table, step):
            before = len(chain)
            out = nth(chain, k, table, step)
            if step == "xn":
                built.append(len(chain) - before)
            return out

        monkeypatch.setattr(symbols, "_nth", counted)
        compose_symbols(num, inverse, -2)
        assert 0 < sum(built) <= 3


def _laplace4():
    return laplace_symbol(4, standard_alphabet(4))


class TestLibraryInputs:
    # each of these raised a raw AttributeError or TypeError, or was accepted

    @pytest.mark.parametrize("symbol", [
        "x", None, 2, lambda: _laplace4()[2], lambda: dict(_laplace4().orders),
    ], ids=["str", "none", "int", "cliffxi", "dict"])
    def test_invert_symbol_refuses_a_non_expansion(self, symbol):
        with pytest.raises(ValidationError) as err:
            invert_symbol(symbol() if callable(symbol) else symbol, 1)
        assert err.value.field == "symbol"

    @pytest.mark.parametrize("side, value", [
        ("right", 3), ("left", "x"), ("left", None), ("right", lambda: _laplace4()[2]),
    ], ids=["right-int", "left-str", "left-none", "right-cliffxi"])
    def test_compose_symbols_refuses_a_non_expansion(self, side, value):
        op = _laplace4()
        value = value() if callable(value) else value
        factors = (op, value) if side == "right" else (value, op)
        with pytest.raises(ValidationError) as err:
            compose_symbols(*factors, -2)
        assert err.value.field == side

    @pytest.mark.parametrize("dim", ["4", 4.0, True, None], ids=["str", "float", "bool", "none"])
    def test_laplace_symbol_refuses_a_non_int_dim(self, dim):
        with pytest.raises(ValidationError) as err:
            laplace_symbol(dim, standard_alphabet(4))
        assert err.value.field == "dim"

    @pytest.mark.parametrize("dim", ["4", 4.0, True, None], ids=["str", "float", "bool", "none"])
    def test_expansion_refuses_a_non_int_dim(self, dim):
        # also with no piece, which no dimension comparison would catch
        for orders in (None, {2: CliffXi.scalar(4, XiExpr.u_power(standard_alphabet(4), 1))}):
            with pytest.raises(ValidationError) as err:
                SymbolExpansion(dim, standard_alphabet(4), orders)
            assert err.value.field == "dim"

    @pytest.mark.parametrize("parametrix", [
        "x", 3, lambda: _laplace4()[2], lambda: dict(_laplace4().orders),
    ], ids=["str", "int", "cliffxi", "dict"])
    def test_power_symbol_refuses_a_non_expansion_parametrix(self, parametrix):
        with pytest.raises(ValidationError) as err:
            power_symbol(_laplace4(), 2, parametrix() if callable(parametrix) else parametrix)
        assert err.value.field == "parametrix"

    @pytest.mark.parametrize("orders", [
        {"a": "piece"}, {True: "piece"}, {1.0: "piece"}, {0: "x"}, {0: "jet"}, ["piece"],
    ], ids=["str-order", "bool-order", "float-order", "str-piece", "xiexpr-piece", "list"])
    def test_expansion_refuses_malformed_orders(self, orders):
        al = standard_alphabet(4)
        stand_in = {"piece": CliffXi.scalar(4, XiExpr.u_power(al, 1)),
                    "jet": XiExpr.u_power(al, 1)}
        orders = ([stand_in[c] for c in orders] if isinstance(orders, list)
                  else {o: stand_in.get(c, c) for o, c in orders.items()})
        with pytest.raises(ValidationError) as err:
            SymbolExpansion(4, al, orders)
        assert err.value.field == "orders"

    def test_recursions_need_hp0_in_the_alphabet(self):
        # the x_n-derivatives bring down hp0, which must be a name of the
        # alphabet (ParamPoly.var raised for the object chains)
        al = Alphabet(["a"])
        u = SymbolExpansion(4, al, {2: CliffXi.scalar(4, XiExpr.u_power(al, 1))})
        with pytest.raises(AlphabetMismatch):
            invert_symbol(u, 1)
        with pytest.raises(AlphabetMismatch):
            compose_symbols(u, u, 0)


def numeric_config_text(nbar, rng):
    """A fully numeric session config in JSON, drawn as the benchmark draws
    its warm-up and closure configs: nonzero small rationals everywhere."""
    def rational(span):
        return f"{rng.choice((-1, 1)) * rng.randint(1, span)}/{rng.randint(1, 4)}"

    n = nbar + 2
    cfg = {"nbar": nbar, "format": "json"}
    cfg.update({f: rational(6) for f in ("s", "divX", "divY", "dimF", "trPhi", "trPhi2",
                                         "hprime0")})
    cfg["X"] = [rational(3) for _ in range(n)]
    cfg["Y"] = [rational(3) for _ in range(n)]
    cfg["torsion"] = [[a, b, c, rational(3)] for a in range(1, n + 1)
                      for b in range(a + 1, n + 1) for c in range(b + 1, n + 1)]
    return json.dumps(cfg)


# The benchmark's closure recipe after a warm-up session, in a fresh
# interpreter: the collections of any generation inside each recursion, from
# its key table to its last built order, are counted (a collection the pause
# defers runs at the first allocation after it, outside the kernel).
CLOSURE_COLLECTIONS = """
import gc, json, sys
from fractions import Fraction
from ncresidue import compose_symbols, emit, invert_symbol, laplace_symbol, load_config
from ncresidue import run_session, symbols
from ncresidue.geometry import lichnerowicz_normal_form
from ncresidue.symbols import CliffXi, SymbolExpansion, XiExpr

warmup, config, jets = json.loads(sys.argv[1])
emit(run_session(load_config(warmup)), "json")
geo = load_config(config).bundle()
point = {**geo.assignment(), **{name: Fraction(v) for name, v in jets.items()}}
op = laplace_symbol(geo.n, geo.alphabet, b_term=lichnerowicz_normal_form(geo).B)
op = SymbolExpansion(geo.n, geo.alphabet, {r: CliffXi(geo.n, geo.alphabet, {
    key: XiExpr(geo.alphabet, {m: p.subs(point) for m, p in xe.terms.items()})
    for key, xe in cx.terms.items()}) for r, cx in op.orders.items()})

marks, table, built = [], symbols.KeyTable, symbols._built

def mark():
    marks.append(sum(g["collections"] for g in gc.get_stats()))

def marked_built(*args):
    out = built(*args)
    mark()
    return out

symbols.KeyTable = lambda mul: mark() or table(mul)
symbols._built = marked_built

def collections(call, *args):
    marks.clear()
    out = call(*args)
    return out, marks[-1] - marks[0]

inverse, inverting = collections(invert_symbol, op, 2)
comp, composing = collections(compose_symbols, op, inverse, -2)
assert comp[0] == CliffXi.scalar(geo.n, XiExpr.const(geo.alphabet, 1))
unpaused = collections(invert_symbol.__wrapped__, op, 2)[1]
print(json.dumps([inverting, composing, unpaused, gc.isenabled()]))
"""


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_collector_state_is_restored(self, enabled, monkeypatch):
        # invert_symbol, compose_symbols and _products_sum (under the normal
        # form) run with the collector off and leave it as they found it,
        # also when one raises
        al = standard_alphabet(4)
        op = laplace_symbol(4, al)
        seen, nth, add = [], symbols._nth, clifford.add_blade_products
        monkeypatch.setattr(symbols, "_nth",
                            lambda *args: seen.append(gc.isenabled()) or nth(*args))
        monkeypatch.setattr(clifford, "add_blade_products",
                            lambda *args: seen.append(gc.isenabled()) or add(*args))
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            compose_symbols(op, invert_symbol(op, 1), -1)
            assert gc.isenabled() is enabled
            lichnerowicz_normal_form(GeometricBundle(4))
            assert gc.isenabled() is enabled
            with pytest.raises(NonCanonicalInput):
                invert_symbol(SymbolExpansion(4, al, {1: op[1]}), 1)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert len(seen) > 2 and not any(seen)

    def test_warm_closure_runs_no_collection(self):
        rng = random.Random(2901)
        names = standard_alphabet(6).names
        jets = {name: f"{rng.choice((-1, 1)) * rng.randint(1, 3)}/{rng.randint(1, 4)}"
                for name in names if name.startswith(("dX_", "dY_", "dT_")) or name == "VolS"}
        job = [numeric_config_text(6, rng), numeric_config_text(4, rng), jets]
        out = subprocess.run([sys.executable, "-c", CLOSURE_COLLECTIONS, json.dumps(job)],
                             capture_output=True, text=True, check=True)
        inverting, composing, unpaused, enabled = json.loads(out.stdout)
        assert (inverting, composing, enabled) == (0, 0, True)
        # the same inversion with the collector on collects: the pin can fail
        assert unpaused > 0


class TestKernelCallers:
    def test_every_kernel_call_sums_blade_products(self, monkeypatch):
        # the benchmark's n = 6, depth-2 closure recipe, its normal form
        # included: the derivative chains merge their images per blade, so
        # every kernel call is one blade pair of add_blade_products
        rng = random.Random(3001)
        geo = load_config(numeric_config_text(4, rng)).bundle()
        point = geo.assignment()
        point.update((name, Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 4)))
                     for name in geo.alphabet.names
                     if name.startswith(("dX_", "dY_", "dT_")) or name == "VolS")
        callers, kernel = [], exact._add_products

        def counted(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return kernel(*args)

        for module in (exact, clifford, symbols):
            if hasattr(module, "_add_products"):
                monkeypatch.setattr(module, "_add_products", counted)
        op = laplace_symbol(6, geo.alphabet, b_term=lichnerowicz_normal_form(geo).B)
        op = subs_expansion(op, point)
        comp = compose_symbols(op, invert_symbol(op, 2), -2)
        assert comp[0] == CliffXi.scalar(6, XiExpr.const(geo.alphabet, 1))
        assert comp[-1].is_zero() and comp[-2].is_zero()
        assert callers and set(callers) == {"add_blade_products"}


class TestSubsymbolStructure:
    def test_drift_parts_are_order_minus_three(self):
        al = standard_alphabet(4)
        op = laplace_symbol(4, al)
        b1, b2, b3 = drift_subsymbol_parts(op)
        par = invert_symbol(op, 2)
        assert b1 + b2 + b3 == par[-3]

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("pipeline_gdn", [False, True], ids=["default_gdn", "pipeline_gdn"])
    def test_each_drift_part_equals_the_reference(self, n, pipeline_gdn):
        # each part on its own: a swap of b2 and b3 keeps their sum
        al = standard_alphabet(n)
        gdn = ParamPoly.var(al, "hp0") * Fraction(n - 1, 2) if pipeline_gdn else None
        op = laplace_symbol(n, al, None, gdn)
        got, want = drift_subsymbol_parts(op), _drift_parts_reference(op)
        for name, b, ref in zip(("b1", "b2", "b3"), got, want):
            assert b == ref, name
        assert not want[1].is_zero() and not want[2].is_zero()

    @pytest.mark.parametrize("nbar", [2, 4, 6, 8])
    def test_power_symbol_parts_equal_the_reference(self, nbar):
        n, al = nbar + 2, standard_alphabet(nbar + 2)
        op = laplace_symbol(n, al)
        pw = power_symbol(op, nbar)
        factor = XiExpr.monomial(al, p=2 - nbar // 2, coeff=Fraction(nbar - 2, 2))
        b1, b2, b3 = _drift_parts_reference(op)
        normal = SparseTerms.scale(b1, factor) + _power_ksum_reference(n, al, nbar // 2)
        drift, twist = SparseTerms.scale(b2, factor), SparseTerms.scale(b3, factor)
        parts = pw.meta["parts"]
        assert parts["normal"] == normal
        assert parts["drift"] == drift
        assert parts["twist"] == twist
        assert pw[1 - nbar] == normal + drift + twist

    def test_power_symbol_refuses_a_parametrix_of_another_operator(self):
        al = standard_alphabet(4)
        other = invert_symbol(laplace_symbol(4, al, gdn=1), 1)
        with pytest.raises(NonCanonicalInput):
            power_symbol(laplace_symbol(4, al), 2, other)

    def test_power_symbol_identity_at_base_dimension(self):
        # nbar = 2 makes the fractional power the identity operator
        al = standard_alphabet(4)
        op = laplace_symbol(4, al)
        pw = power_symbol(op, 2, invert_symbol(op, 1))
        assert pw[0] == CliffXi.scalar(4, XiExpr.const(al, 1))
        assert pw[-1].is_zero()

    def test_power_symbol_top_order(self):
        al = standard_alphabet(6)
        op = laplace_symbol(6, al)
        pw = power_symbol(op, 4, invert_symbol(op, 1))
        assert pw[-2] == CliffXi.scalar(6, XiExpr.u_power(al, -1))
        assert set(pw.meta["parts"]) == {"normal", "drift", "twist"}

    @pytest.mark.parametrize(
        "dim, nbar, error",
        [(4, 3, OddBarDimension), (4, True, ValidationError), (6, 2, DimMismatch)],
    )
    def test_power_symbol_rejects_bad_nbar(self, dim, nbar, error):
        # the operator lives in dimension nbar + 2, with nbar even in 2..10
        op = laplace_symbol(dim, standard_alphabet(dim))
        with pytest.raises(error):
            power_symbol(op, nbar)

    def test_meta_is_read_only_and_not_shared(self):
        al = standard_alphabet(4)
        op = laplace_symbol(4, al)
        pw = power_symbol(op, 2, invert_symbol(op, 1))
        with pytest.raises(TypeError):
            pw.meta["K"][0] = pw.meta["W"]
        with pytest.raises(TypeError):
            pw.meta["gdn"] = ParamPoly.zero(al)
        with pytest.raises(TypeError):
            pw.meta["parts"]["normal"] = CliffXi.zero(4, al)
        fresh = laplace_symbol(4, al).meta
        assert set(op.meta) == {"gdn", "K", "W"}
        assert all(op.meta[key] == fresh[key] for key in fresh)
