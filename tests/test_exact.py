"""Exact scalar and parameter-polynomial arithmetic, and the sparse-term core."""

import json
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ncresidue.exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    Alphabet,
    GaussRational,
    KeyTable,
    ParamPoly,
    SparseTerms,
)
from ncresidue.boundary import SphereSymbol
from ncresidue.clifford import CliffordElement, add_blade_products, represent
from ncresidue.errors import (
    AlphabetMismatch,
    DimMismatch,
    DivisionByZero,
    NonCanonicalInput,
    UnboundParameter,
    ValidationError,
)
from ncresidue.halfplane import HalfPlaneRational
from ncresidue.oracle import constant_value, poly_eval, poly_params, to_complex
from ncresidue import clifford, exact, symbols
from ncresidue.symbols import (
    CliffXi, SymbolExpansion, XiExpr, _built, _jet_form, _jet_key_product, _nth, _summed_form,
    _taylor, _times_u_power, compose_symbols,
)
from conftest import cliffxi_scalars, rand_gauss, rand_poly


class TestGaussRational:
    def test_basic_constants(self):
        assert GR_ZERO == GaussRational(0)
        assert GR_ONE == GaussRational(1)
        assert GR_I * GR_I == GaussRational(-1)

    def test_field_axioms_random(self):
        rng = random.Random(11)
        for _ in range(100):
            a, b, c = (rand_gauss(rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a - b) + b == a
            if not b.is_zero():
                assert (a / b) * b == a

    def test_inverse(self):
        z = GaussRational(Fraction(3, 2), Fraction(-1, 4))
        assert z * z.inverse() == GR_ONE
        with pytest.raises(DivisionByZero):
            GR_ZERO.inverse()
        with pytest.raises(DivisionByZero):
            GR_ONE / GR_ZERO

    def test_conjugate_and_modulus(self):
        z = GaussRational(Fraction(2), Fraction(5, 3))
        m = z * z.conjugate()
        assert m.im == 0
        assert m.re == Fraction(2) ** 2 + Fraction(5, 3) ** 2

    def test_pow(self):
        z = GaussRational(1, 1)
        assert z ** 2 == GaussRational(0, 2)
        assert z ** 0 == GR_ONE

    def test_pow_against_repeated_products(self, monkeypatch):
        # k in -3..7 against the k-fold product of the value or its inverse;
        # a power squares only while bits remain and starts from the lowest
        # set bit: floor(log2 k) squarings and popcount(k) - 1 products
        z = GaussRational(Fraction(3, 2), Fraction(-1, 5))
        for x in (GR_ZERO, GR_ONE, -GR_ONE, GR_I, GaussRational(1, 1), z):
            for k in range(-3, 8):
                if x.is_zero() and k < 0:
                    with pytest.raises(DivisionByZero):
                        x ** k
                    continue
                want, step = GR_ONE, x if k >= 0 else x.inverse()
                for _ in range(abs(k)):
                    want = want * step
                got = x ** k
                assert got == want and normal(got)
        calls, mul = [], GaussRational.__mul__
        monkeypatch.setattr(GaussRational, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
        for k in range(8):
            calls.clear()
            z ** k
            assert len(calls) == max(k.bit_length() - 1, 0) + max(k.bit_count() - 1, 0)

    def test_hash_consistent_with_eq(self):
        a = GaussRational(Fraction(1, 2), 0)
        b = GaussRational(Fraction(2, 4), Fraction(0))
        assert a == b and hash(a) == hash(b)

    def test_from_value_rejects_inexact(self):
        assert GaussRational.from_value(3) == GaussRational(3)
        assert GaussRational.from_value(Fraction(1, 3)).re == Fraction(1, 3)
        with pytest.raises((ValidationError, TypeError)):
            GaussRational.from_value(0.5)
        with pytest.raises((ValidationError, TypeError)):
            GaussRational.from_value(complex(1.0, 2.0))

    def test_to_complex(self):
        z = GaussRational(Fraction(1, 2), Fraction(-3))
        assert to_complex(z) == complex(0.5, -3.0)


class TestAlphabet:
    def test_ordered_names(self):
        al = Alphabet(["x", "y"])
        assert al.names == ("x", "y")

    def test_rejects_duplicates(self):
        with pytest.raises((ValidationError, ValueError)):
            Alphabet(["x", "x"])


class TestParamPoly:
    def test_constructors(self, small_alphabet):
        al = small_alphabet
        one = ParamPoly.one(al)
        zero = ParamPoly.zero(al)
        assert one.is_constant() and constant_value(one) == GR_ONE
        assert zero.is_zero()
        a = ParamPoly.var(al, "a")
        assert not a.is_constant()
        assert poly_params(a) == {"a"}

    def test_ring_axioms_random(self, small_alphabet):
        rng = random.Random(7)
        for _ in range(40):
            p = rand_poly(small_alphabet, rng)
            q = rand_poly(small_alphabet, rng)
            r = rand_poly(small_alphabet, rng)
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert (p - q) + q == p

    def test_pow(self, small_alphabet):
        a = ParamPoly.var(small_alphabet, "a")
        b = ParamPoly.var(small_alphabet, "b")
        assert (a + b) ** 2 == a * a + a * b * ParamPoly.const(
            small_alphabet, 2
        ) + b * b
        with pytest.raises(TypeError):
            (a + b) ** -1

    def test_coefficient_extraction(self, small_alphabet):
        al = small_alphabet
        a = ParamPoly.var(al, "a")
        b = ParamPoly.var(al, "b")
        p = a * a * ParamPoly.const(al, 3) + a * b - ParamPoly.one(al)
        assert p.coefficient((("a", 2),)) == GaussRational(3)
        assert p.coefficient((("a", 1), ("b", 1))) == GR_ONE
        assert p.coefficient(()) == GaussRational(-1)
        assert p.coefficient((("b", 2),)) == GR_ZERO

    def test_eval_and_unbound(self, small_alphabet):
        al = small_alphabet
        p = ParamPoly.var(al, "a") * ParamPoly.var(al, "b")
        got = poly_eval(p, {"a": Fraction(2), "b": Fraction(3, 2), "c": Fraction(0)})
        assert got == GaussRational(3)
        with pytest.raises(UnboundParameter):
            poly_eval(p, {"a": Fraction(2)})

    def test_partial_subs(self, small_alphabet):
        al = small_alphabet
        p = ParamPoly.var(al, "a") * ParamPoly.var(al, "b") + ParamPoly.var(al, "c")
        q = p.subs({"a": Fraction(2)})
        assert poly_params(q) == {"b", "c"}
        assert q == ParamPoly.var(al, "b") * ParamPoly.const(al, 2) + ParamPoly.var(
            al, "c"
        )

    def test_alphabet_mismatch(self, small_alphabet):
        other = Alphabet(["x"])
        with pytest.raises(AlphabetMismatch):
            ParamPoly.var(small_alphabet, "a") + ParamPoly.var(other, "x")

    def test_values_over_other_alphabets_are_unequal(self):
        # equal terms over different alphabets: unequal, so one dict or set
        # can hold both, while arithmetic still refuses to mix them
        p, q = ParamPoly.const(Alphabet(["x"]), 2), ParamPoly.const(Alphabet(["y"]), 2)
        assert p != q and not p == q
        assert {p: 1}.get(q) is None and len({p, q}) == 2
        for a, b in ((p, q), (CliffordElement.generator(4, Alphabet(["x"]), 1),
                              CliffordElement.generator(4, Alphabet(["y"]), 1))):
            assert a != b
            with pytest.raises(AlphabetMismatch):
                a + b
            with pytest.raises(AlphabetMismatch):
                a * b

    def test_unknown_name_rejected(self, small_alphabet):
        with pytest.raises(AlphabetMismatch):
            ParamPoly.var(small_alphabet, "zz")

    @pytest.mark.parametrize(
        "mono",
        [(("a", 1), ("a", 1)), (("a", 2), ("b", 1), ("a", 1)), (("a", 1.5),), (("a", "2"),),
         (("a", True),), (("a", 0),), (("b", 1), ("a", -1))],
        ids=["repeated", "repeated_apart", "float", "string", "bool", "zero", "negative"],
    )
    def test_non_canonical_monomial_rejected(self, small_alphabet, mono):
        # a repeated name built a*a, unequal to a^2 with a nonzero difference;
        # 1.5 built a^1.5 and "2" raised a raw TypeError
        with pytest.raises(ValueError, match=re.escape(repr(mono))):
            ParamPoly(small_alphabet, {mono: 1})
        name, exp = mono[-1]
        if len(mono) == 1:
            with pytest.raises(ValueError, match=re.escape(repr(mono))):
                ParamPoly.var(small_alphabet, name, exp)

    def test_var_builds_what_the_constructor_builds(self, small_alphabet):
        for exp in (1, 3):
            got = ParamPoly.var(small_alphabet, "b", exp)
            assert got.terms == ParamPoly(small_alphabet, {(("b", exp),): 1}).terms
            assert type(got.terms[(("b", exp),)]) is GaussRational
        assert ParamPoly.var(small_alphabet, "a", 2) == ParamPoly.var(small_alphabet, "a") ** 2

    def test_coefficients_over_another_alphabet_rejected(self):
        # both built silently: the README's "Library use" already promised
        # AlphabetMismatch for HalfPlaneRational
        al, other = Alphabet(["a", "b"]), Alphabet(["a", "b", "x"])
        for poly in (ParamPoly.var(other, "x"), ParamPoly.const(other, 2), ParamPoly.zero(other)):
            with pytest.raises(AlphabetMismatch):
                HalfPlaneRational(al, [1, poly], a=2)
            with pytest.raises(AlphabetMismatch):
                CliffordElement(4, al, {(1, ()): ParamPoly.one(al), (3, ()): poly})
        # an equal alphabet that is another instance is the same alphabet
        twin, a = Alphabet(al.names), ParamPoly.var(al, "a")
        assert HalfPlaneRational(twin, [a], a=2) == HalfPlaneRational(al, [a], a=2)
        assert CliffordElement(4, twin, {(1, ()): a}) == CliffordElement(4, al, {(1, ()): a})


# Property tests.  The oracle for GaussRational is a plain pair of Fractions
# (re, im); every result is also checked for the normal form of its triple.

fractions = st.builds(
    Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4)
) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
pairs = st.tuples(fractions, fractions)


def gauss(pair):
    return GaussRational(*pair)


def normal(z):
    return z.d > 0 and gcd(z.a, z.b, z.d) == 1


def agrees(z, pair):
    return normal(z) and (z.re, z.im) == pair and type(z.re) is Fraction


def pair_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pair_inverse(x):
    n = x[0] * x[0] + x[1] * x[1]
    return (x[0] / n, -x[1] / n)


def pair_str(re, im):
    """The printed form of re + im*i, written out from the two Fractions."""
    if im == 0:
        return str(re)
    if re == 0:
        return {1: "i", -1: "-i"}.get(im, f"{im}*i")
    sign = "+" if im > 0 else "-"
    mag = abs(im)
    return f"({re}{sign}{'i' if mag == 1 else f'{mag}*i'})"


# normal triples from small and large integers, with zero parts and the
# imaginary parts +-d/d (printed i and -i) drawn on purpose
ints = st.integers(-9, 9) | st.integers(-10**40, 10**40)
denominators = st.integers(1, 12) | st.integers(1, 10**30)
triples = denominators.flatmap(lambda d: st.tuples(
    ints | st.just(0), ints | st.sampled_from((0, d, -d)), st.just(d))
).map(lambda t: exact._reduced(*t))


class TestGaussRationalProperties:
    @given(triples)
    def test_str_is_the_fraction_rendering(self, z):
        assert normal(z)
        assert str(z) == pair_str(Fraction(z.a, z.d), Fraction(z.b, z.d))

    def test_str_past_the_digit_limit_raises(self):
        big = 10 ** 5000
        for z in (GaussRational(big), GaussRational(0, -big), GaussRational(Fraction(1, big)),
                  GaussRational(1, Fraction(2, big)), exact._reduced(1, big, 3)):
            with pytest.raises(ValueError):
                str(z)

    @given(pairs, pairs)
    def test_field_operations_match_fraction_pairs(self, x, y):
        a, b = gauss(x), gauss(y)
        assert agrees(a + b, (x[0] + y[0], x[1] + y[1]))
        assert agrees(a - b, (x[0] - y[0], x[1] - y[1]))
        assert agrees(a * b, pair_mul(x, y))
        assert agrees(-a, (-x[0], -x[1]))
        assert agrees(a.conjugate(), (x[0], -x[1]))
        if y != (0, 0):
            assert agrees(b.inverse(), pair_inverse(y))
            assert agrees(a / b, pair_mul(x, pair_inverse(y)))
        else:
            with pytest.raises(DivisionByZero):
                a / b
        assert (a == b) == (x == y)
        assert str(a) == pair_str(*x)

    @given(st.fractions())
    def test_hash_agrees_with_equal_rationals(self, q):
        # a value equal to an int or Fraction must find it in a dict or set
        g = GaussRational(q)
        poly = ParamPoly.const(Alphabet(["x"]), q)
        for value in (g, poly):
            assert value == q and hash(value) == hash(q)
            assert {q: "x"}.get(value) == "x"
            assert len({q, value}) == 1
        if q.denominator == 1:
            assert hash(g) == hash(int(q)) and {int(q): "x"}.get(g) == "x"

    @given(pairs, st.integers(-4, 6))
    def test_power_matches_repeated_product(self, x, k):
        if x == (0, 0) and k < 0:
            return
        want = (Fraction(1), Fraction(0))
        step = x if k >= 0 else pair_inverse(x)
        for _ in range(abs(k)):
            want = pair_mul(want, step)
        assert agrees(gauss(x) ** k, want)

    @given(pairs, pairs, st.integers(1, 50))
    def test_mixed_operands_and_equal_values(self, x, y, k):
        a, b = gauss(x), gauss(y)
        # the same value reached along different paths
        ways = [
            (a + b) - b,
            a * GaussRational(k) / k,
            GaussRational(f"{x[0].numerator * k}/{x[0].denominator * k}", x[1]),
            GaussRational(x[0]) + GaussRational(0, x[1]),
        ]
        for z in ways:
            assert normal(z)
            assert z == a and hash(z) == hash(a)
        assert agrees(a * x[0], pair_mul(x, (x[0], 0)))
        assert agrees(x[1] + a, (x[0] + x[1], x[1]))
        assert agrees(k - a, (k - x[0], -x[1]))
        if y[1] == 0:
            assert (b == y[0]) and GaussRational.from_value(y[0]) == b

    def test_rejects_floats(self):
        for bad in ((0.5,), (1, 0.5), (complex(1, 2),)):
            with pytest.raises(TypeError):
                GaussRational(*bad)
        one = GaussRational(1)
        for op in (
            lambda: one + 0.5,
            lambda: one * 0.5,
            lambda: one / 0.5,
            lambda: 0.5 - one,
            lambda: 0.5 / one,
        ):
            with pytest.raises(TypeError):
                op()


ALPHABET = Alphabet(["a", "b", "c"])
monomials = st.lists(
    st.tuples(st.sampled_from(ALPHABET.names), st.integers(1, 3)),
    max_size=3,
    unique_by=lambda t: t[0],
)
gauss_values = pairs.map(gauss)
polys = st.lists(st.tuples(monomials, gauss_values), max_size=5).map(
    lambda items: ParamPoly(ALPHABET, {tuple(m): c for m, c in items})
)
# zero values make whole terms vanish under subs and eval
point_values = st.just(Fraction(0)) | fractions
assignments = st.fixed_dictionaries({name: point_values for name in ALPHABET.names})


def subs_fold(p, partial):
    """p.subs(partial) as a fold of GaussRational products, term by term."""
    out = ParamPoly.zero(p.alphabet)
    for mono, c in p.terms.items():
        residual = []
        for name, exp in mono:
            if name in partial:
                c = c * GaussRational.from_value(partial[name]) ** exp
            else:
                residual.append((name, exp))
        out = out + ParamPoly(p.alphabet, {tuple(residual): c})
    return out


class TestParamPolyProperties:
    @given(polys, polys, gauss_values, assignments)
    def test_eval_is_a_ring_homomorphism(self, p, q, s, point):
        ep, eq = poly_eval(p, point), poly_eval(q, point)
        const = ParamPoly.const(ALPHABET, s)
        assert poly_eval(p + q, point) == ep + eq
        assert poly_eval(p - q, point) == ep - eq
        assert poly_eval(p * q, point) == ep * eq
        assert poly_eval(p * s, point) == ep * s
        assert poly_eval(p * const, point) == ep * s
        assert poly_eval(const * p, point) == ep * s

    @given(polys, gauss_values)
    def test_scalar_and_constant_factors_scale_each_coefficient(self, p, s):
        want = ParamPoly(ALPHABET, {m: c * s for m, c in p.terms.items()})
        const = ParamPoly.const(ALPHABET, s)
        for got in (p * s, p * const, const * p):
            assert got == want
            assert all(not c.is_zero() for c in got.terms.values())

    @given(polys, gauss_values | st.integers(-9, 9) | fractions)
    def test_scalar_on_the_left_defers_to_the_polynomial(self, p, s):
        assert s * p == p * s
        assert s + p == p + s
        assert s - p == -(p - s)
        if isinstance(s, GaussRational):
            assert GaussRational.__truediv__(s, p) is NotImplemented
            with pytest.raises(TypeError):
                s / p

    @given(polys, assignments, st.sets(st.sampled_from(ALPHABET.names)))
    def test_subs_then_eval_is_eval(self, p, point, names):
        partial = {k: v for k, v in point.items() if k in names}
        rest = {k: v for k, v in point.items() if k not in names}
        q = p.subs(partial)
        assert poly_params(q) <= set(rest)
        assert all(not c.is_zero() for c in q.terms.values())
        assert poly_eval(q, rest) == poly_eval(p, point)

    @given(polys, st.fixed_dictionaries(
        {name: st.integers(-9, 9) | fractions | gauss_values for name in ALPHABET.names}))
    def test_full_subs_is_eval(self, p, point):
        # int, Fraction and GaussRational values, a value of its own per name
        got = p.subs(point)
        assert got == ParamPoly.const(ALPHABET, poly_eval(p, point))
        assert all(type(c) is GaussRational and normal(c) for c in got.terms.values())

    @given(polys, st.dictionaries(st.sampled_from((*ALPHABET.names, "d")),
                                  st.integers(-9, 9) | fractions | gauss_values))
    def test_subs_is_the_product_fold(self, p, partial):
        # empty, disjoint ("d" only), partial and full assignments; p minus
        # its fold is a sum that cancels under the same substitution
        for q in (p, p - subs_fold(p, partial)):
            got = q.subs(partial)
            assert got == subs_fold(q, partial)
            assert all(type(c) is GaussRational and normal(c) for c in got.terms.values())
            assert type(got.terms) is dict and got.terms is not q.terms
        assert (p - subs_fold(p, partial)).subs(partial).is_zero()
        if not poly_params(p) & set(partial):
            # nothing to substitute: the coefficients are copied, not recomputed
            assert all(p.subs(partial).terms[m] is c for m, c in p.terms.items())

    def test_subs_converts_each_value_once(self, monkeypatch):
        a, b, c = (ParamPoly.var(ALPHABET, name) for name in "abc")
        p = a * a * b + a * b * b * b * 2 + a + c * 3 + 1
        point = {"a": Fraction(2, 3), "b": 5, "c": GaussRational(1, 2), "d": 7}
        want = ParamPoly.const(ALPHABET, poly_eval(p, point))
        calls, convert = [], GaussRational.from_value
        monkeypatch.setattr(GaussRational, "from_value", lambda v: calls.append(v) or convert(v))
        assert p.subs(point) == want
        assert sorted(map(str, calls)) == ["(1+2*i)", "2/3", "5"]


JET_ALPHABET = Alphabet(["hp0", "a", "b"])
jet_keys = st.tuples(
    st.integers(0, 3),
    st.integers(-3, 2),
    st.integers(0, 2),
    st.integers(0, 2),
    st.dictionaries(st.integers(1, 3), st.integers(1, 3), max_size=2).map(
        lambda d: tuple(sorted(d.items()))
    ),
)
jet_coeffs = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from(JET_ALPHABET.names), st.integers(1, 2)),
            max_size=2,
            unique_by=lambda t: t[0],
        ),
        gauss_values,
    ),
    min_size=1,
    max_size=2,
).map(lambda items: ParamPoly(JET_ALPHABET, {tuple(m): c for m, c in items}))
jets = st.dictionaries(jet_keys, jet_coeffs, max_size=6).map(
    lambda terms: XiExpr(JET_ALPHABET, terms)
)


def term_sum(x, pieces):
    """The derivative as a sum of one-term XiExprs, added one at a time."""
    out = XiExpr.zero(x.alphabet)
    for key, c in x.terms.items():
        for new_key, coeff in pieces(key, c):
            out = out + XiExpr(x.alphabet, {new_key: coeff})
    return out


class TestJetDerivativeProperties:
    @given(jets)
    def test_d_xn_matches_term_by_term_sum(self, x):
        hp0 = ParamPoly.var(x.alphabet, "hp0")

        def pieces(key, c):
            m, p, q, r, tang = key
            if p:
                yield (m, p - 1, q + 1, r, tang), c * hp0 * p
            if q:
                yield key, c * hp0 * q
            if r:
                yield key, c * hp0 * r

        assert x.d_xn() == term_sum(x, pieces)

    @given(jets)
    def test_d_xin_matches_term_by_term_sum(self, x):
        def pieces(key, c):
            m, p, q, r, tang = key
            if m:
                yield (m - 1, p, q, r, tang), c * m
            if p:
                yield (m + 1, p - 1, q, r, tang), c * (2 * p)

        assert x.d_xin() == term_sum(x, pieces)



# The shared product of the sparse-term core, checked on two of its algebras:
# Clifford multivectors against their matrices, and the jet ring.


def clifford_elements(n):
    return st.dictionaries(st.integers(0, (1 << n) - 1), polys, max_size=4).map(
        lambda terms: CliffordElement(n, ALPHABET, {(m, ()): c for m, c in terms.items()})
    )


clifford_triples = st.sampled_from((2, 4, 6)).flatmap(
    lambda n: st.tuples(clifford_elements(n), clifford_elements(n), clifford_elements(n))
)


# labels repeat factors, and masks sharing generators give negative signs
LABELS = ((), ("phi",), ("phi", "phi"), ("psi",))


def cliffxis(n):
    blade_keys = st.tuples(st.integers(0, (1 << n) - 1), st.sampled_from(LABELS))
    return st.dictionaries(blade_keys, jets, max_size=4).map(
        lambda terms: CliffXi(n, JET_ALPHABET, terms)
    )


cliffxi_pairs = st.sampled_from((2, 4)).flatmap(lambda n: st.tuples(cliffxis(n), cliffxis(n)))


class TestIntegerFormChains:
    @given(cliffxi_pairs, st.integers(1, 3))
    def test_chains_built_back_equal_the_object_derivatives(self, ab, k):
        # the recursions' id-level maps over one key table, its memos met
        # again by later operands: the xi_n- and x_n-derivative chains built
        # back against CliffXi.d_xin(j) and j-fold d_xn(), and the division
        # by u against the shift of every u power
        a, b = ab
        table = KeyTable(_jet_key_product)
        for x in (a, b, a + b, a - b, b - b):
            def built(form):
                got = _built(x.dim, x.alphabet, form, table.key_of)
                assert is_clean(got)
                assert all(type(g) is GaussRational and normal(g) for g in cliffxi_scalars(got))
                return got

            xin, xn, want = [_jet_form(x, table)], [_jet_form(x, table)], x
            for j in range(k + 1):
                assert built(_nth(xin, j, table, "xin")) == x.d_xin(j)
                assert built(_nth(xn, j, table, "xn")) == want
                want = want.d_xn()
            assert built(_nth(xn[:1], 1, table, "u")) == _times_u_power(x, GR_ONE, -1)
            # the steps are integer maps: a chain keeps its form's denominator
            assert {d for d, _ in xin + xn} == {xn[0][0]}


def labelled_cliffords(n):
    keys = st.tuples(st.integers(0, (1 << n) - 1), st.sampled_from(LABELS))
    return st.dictionaries(keys, polys, max_size=4).map(
        lambda terms: CliffordElement(n, ALPHABET, terms)
    )


labelled_pairs = st.sampled_from((2, 4)).flatmap(
    lambda n: st.tuples(labelled_cliffords(n), labelled_cliffords(n))
)


def tangential(dim, alphabet):
    """A CliffXi whose jet terms all carry tangential covariables, so that
    its products merge tangential keys."""
    a = ParamPoly.var(alphabet, "a")
    return CliffXi(dim, alphabet, {
        (1, ("phi",)): XiExpr(alphabet, {(0, 1, 0, 0, ((1, 1), (2, 2))): a * Fraction(1, 3),
                                         (1, 0, 0, 1, ((2, 1),)): a + GaussRational(0, 2)}),
        (3, ()): XiExpr(alphabet, {(0, -1, 1, 0, ((1, 2),)): ParamPoly.const(alphabet, 5)}),
    })


def is_clean(cx):
    """No empty coefficient at any level, and no zero scalar."""
    return all(
        xe.terms and all(p.terms and not any(c.is_zero() for c in p.terms.values())
                         for p in xe.terms.values())
        for xe in cx.terms.values()
    )


def kernel_product(x, y):
    """x * y summed in the integer kernel, as its two callers sum it: a
    polynomial as a scalar blade and a Clifford multivector through
    _products_sum, a Clifford-valued symbol as the symbol recursions do."""
    if isinstance(x, ParamPoly):
        sx, sy = (CliffordElement.scalar(2, x.alphabet, v) for v in (x, y))
        return kernel_product(sx, sy).coefficient(0)
    if isinstance(x, CliffordElement):
        return x._products_sum(((x, y),))
    return summed_in_kernel(KeyTable(_jet_key_product), [(x, y, GR_ONE)])


def summed_in_kernel(table, triples):
    """The sum of factor * x * y over the triples (x, y, factor) of
    Clifford-valued symbols, each pair brought to the integer form and added
    into one accumulator over table, built back."""
    acc = [1, {}]
    for x, y, f in triples:
        add_blade_products(acc, _jet_form(x, table), _jet_form(y, table), table, f)
    x = triples[0][0]
    return _built(x.dim, x.alphabet, _summed_form(acc), table.key_of)


# Scalars whose denominators are coprime (2, 3, 5, 7) or do not divide one
# another (4, 6, 9), with real and imaginary parts over different ones.
DENOMINATORS = st.sampled_from((1, 2, 3, 4, 5, 6, 7, 9))
mixed_scalars = st.builds(
    lambda a, b, d1, d2: GaussRational(Fraction(a, d1), Fraction(b, d2)),
    st.integers(-4, 4), st.integers(-4, 4), DENOMINATORS, DENOMINATORS,
).filter(lambda g: not g.is_zero())


def denominated_cliffxis(n):
    blade_keys = st.tuples(st.integers(0, (1 << n) - 1), st.sampled_from(LABELS))
    monomials = st.sampled_from(((), (("a", 1),), (("b", 2), ("hp0", 1))))
    terms = st.lists(st.tuples(blade_keys, jet_keys, monomials, mixed_scalars),
                     min_size=1, max_size=6)
    al = JET_ALPHABET
    return terms.map(lambda ts: CliffXi.zero(n, al).plus(
        CliffXi(n, al, {key: XiExpr(al, {jk: ParamPoly(al, {m: g})})}) for key, jk, m, g in ts))


def denominated_cliffords(n):
    keys = st.tuples(st.integers(0, (1 << n) - 1), st.sampled_from(LABELS))
    monomials = st.sampled_from(((), (("a", 1),), (("b", 2), ("c", 1))))
    terms = st.lists(st.tuples(keys, monomials, mixed_scalars), min_size=1, max_size=6)
    return terms.map(lambda ts: CliffordElement.zero(n, ALPHABET).plus(
        CliffordElement(n, ALPHABET, {key: ParamPoly(ALPHABET, {m: g})}) for key, m, g in ts))


# the factors of the symbol recursions, (-i)^k / k!, and mixed Gaussian ones
factors = st.integers(0, 4).map(_taylor) | mixed_scalars
denominated_triples = st.sampled_from((2, 4)).flatmap(lambda n: st.lists(
    st.tuples(denominated_cliffxis(n), denominated_cliffxis(n), factors), min_size=1, max_size=4))
denominated_pairs = st.sampled_from((2, 4)).flatmap(lambda n: st.lists(
    st.tuples(denominated_cliffords(n), denominated_cliffords(n)), min_size=1, max_size=4))


def count_calls(monkeypatch, cls, name, calls):
    method = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda *args: calls.append(name) or method(*args))


class TestSparseTermsCore:
    @given(clifford_triples)
    def test_clifford_product_against_the_matrix_oracle(self, abc):
        a, b, c = abc
        ab = a * b
        assert represent(ab) == represent(a) * represent(b)
        assert represent(ab * c) == represent(a) * represent(b) * represent(c)
        assert ab * c == a * (b * c)
        assert a * (b + c) == ab + a * c
        assert (a - b) * c == a * c - b * c
        assert represent(a * (b + c)) == represent(a) * (represent(b) + represent(c))

    @given(jets, jets, jets)
    def test_jet_product_is_associative_and_distributive(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x - y) * z == x * z - y * z
        assert x * y == y * x

    @given(cliffxi_pairs)
    def test_cliffxi_product_equals_the_nested_product(self, ab):
        # the kernel's product against the core's product `*` through XiExpr
        # and ParamPoly; (a + b)(a - b) has sums that cancel, b - b is empty
        a, b = ab
        for x, y in ((a, b), (b, a), (a + b, a - b), (a, b - b), (b - b, a)):
            got = kernel_product(x, y)
            assert got == x * y
            assert is_clean(got)

    @given(polys, polys, gauss_values, labelled_pairs)
    def test_kernel_products_equal_the_core_product(self, p, q, s, ab):
        # the values mix denominators and imaginary parts; (x + y)(x - y) has
        # sums that cancel, and a constant, alone or beside other terms, takes
        # the kernel's unit-key path (ParamPoly's x * y itself maps the terms
        # of x when y has one term, as a constant or a monomial has)
        const = ParamPoly.const(ALPHABET, s)
        mono = ParamPoly(ALPHABET, {(("a", 2), ("c", 1)): s})
        for x, y in ((p, q), (p + q, p - q), (p + const, q), (const, p), (q, const),
                     (q - q, p), (p, mono), (mono, q + const)):
            got = kernel_product(x, y)
            assert got == SparseTerms._product(x, y) == x * y
            assert all(type(c) is GaussRational and normal(c) for c in got.terms.values())
        a, b = ab
        c = CliffordElement.scalar(a.dim, ALPHABET, p + const)
        for x, y in ((a, b), (b, a), (a + b, a - b), (a, c), (c, b), (b - b, a)):
            got = kernel_product(x, y)
            assert got == x * y
            assert all(
                poly.terms and all(type(g) is GaussRational and normal(g)
                                   for g in poly.terms.values())
                for poly in got.terms.values()
            )

    @given(labelled_pairs, polys)
    def test_assembled_sum_equals_the_left_fold(self, ab, p):
        # B and E - B are assembled as start + start._products_sum(pairs); the
        # fold adds the core's products one by one.  start is nonzero, as
        # B's scalar is, and pairs cancel: (a, b) against (-a, b), a against
        # -a (each against the unit), and then start against -start
        a, b = ab
        one = CliffordElement.scalar(a.dim, ALPHABET, 1)
        start = CliffordElement.scalar(a.dim, ALPHABET, p) + b
        pairs = [(a, b), (b, one), (a + b, a - b), (-a, b), (a, one), (b, a), (-a, one),
                 (-start, one)]
        want = start
        for x, y in pairs:
            want = want + SparseTerms._product(x, y)
        got = start + start._products_sum(pairs)
        assert got == want
        assert all(
            poly.terms and all(type(g) is GaussRational and normal(g) for g in poly.terms.values())
            for poly in got.terms.values()
        )
        assert (-b + b._products_sum([(a, b), (-a, b), (b, one)])).is_zero()

    @given(cliffxi_pairs, gauss_values, st.integers(-2, 1))
    def test_accumulated_products_equal_the_nested_products(self, ab, factor, shift):
        # factor * u^shift * x * y summed over several pairs in one map, against
        # the core's product through XiExpr and ParamPoly, term by term; the
        # factor may be zero, and adding a pair again with -factor cancels it;
        # every pair with t merges tangential keys; u^shift is taken on the
        # left factors before the kernel, as invert_symbol takes u^-1
        a, b = ab
        dim, alphabet = a.dim, a.alphabet
        t = tangential(dim, alphabet)
        u = CliffXi.scalar(dim, XiExpr.u_power(alphabet, shift))
        triples, want = [], CliffXi.zero(dim, alphabet)
        for x, y, f in ((a, b, factor), (b, a, factor * GR_I), (a + b, a - b, -factor),
                        (a + t, t, factor), (t, b - t, factor * GR_I)):
            triples.append((_times_u_power(x, GR_ONE, shift), y, f))
            want = want + SparseTerms._product(SparseTerms._product(u, x), y).scale(f)
        got = summed_in_kernel(KeyTable(_jet_key_product), triples)
        assert got == want
        assert is_clean(got)
        assert all(type(g) is GaussRational and normal(g) for g in cliffxi_scalars(got))
        cancelled = [(a, b, factor), (a, b, -factor)]
        assert summed_in_kernel(KeyTable(_jet_key_product), cancelled).is_zero()

    @given(cliffxi_pairs, gauss_values, st.integers(-2, 1))
    def test_one_key_table_serves_every_map_of_a_recursion(self, ab, factor, shift):
        # as in invert_symbol and compose_symbols: maps of their own over one
        # key table, and built results multiplied again through it, each
        # against the core's product through XiExpr and ParamPoly
        a, b = ab
        dim, alphabet = a.dim, a.alphabet
        t, table = tangential(dim, alphabet), KeyTable(_jet_key_product)

        def step(x, y, f, s):
            got = summed_in_kernel(table, [(_times_u_power(x, GR_ONE, s), y, f)])
            u = CliffXi.scalar(dim, XiExpr.u_power(alphabet, s))
            assert got == SparseTerms._product(SparseTerms._product(u, x), y).scale(f)
            assert is_clean(got)
            return got

        first = step(a, b + t, factor, shift)
        step(t, first, -GR_I, -shift)
        step(b, a, factor, shift)

    @given(labelled_pairs, gauss_values, polys)
    def test_products_sum_equals_the_sum_of_core_products(self, ab, s, p):
        # operands recur across the pairs, so their keys share ids; the head
        # pair is nonzero, with a polynomial scalar as B's normal form has,
        # and pairs cancel: (a, b) against (-a, b), then the head against
        # its negative
        a, b = ab
        head = CliffordElement.scalar(a.dim, ALPHABET, p) + b
        pairs = [(head, b), (a, b), (b, a), (a, a), (a + b, b.scale(s)), (b - a, a), (-a, b),
                 (a + b, a - b), (-head, b)]
        want = CliffordElement.zero(a.dim, ALPHABET)
        for x, y in pairs:
            want = want + SparseTerms._product(x, y)
        got = a._products_sum(pairs)
        assert got == want
        assert all(
            poly.terms and all(type(g) is GaussRational and normal(g) for g in poly.terms.values())
            for poly in got.terms.values()
        )
        assert a._products_sum([(a, b), (-a, b)]).is_zero()

    def test_accumulated_sums_are_reduced_once_and_cancelled_keys_dropped(self):
        # the scalar sum 1/2 + 1/3 - 5/6 cancels, so its blade is dropped;
        # 1/6 + i/4 + 1/3 + i/4 meets three denominators and leaves as the
        # normal form (1 + i)/2, a GaussRational that hashes as its value
        al = JET_ALPHABET
        one = CliffXi.scalar(2, XiExpr.const(al, 1))
        xi = CliffXi(2, al, {(1, ("phi",)): XiExpr.monomial(al, m=1)})
        acc, table = [1, {}], KeyTable(_jet_key_product)
        quarter_i = GaussRational(0, Fraction(1, 4))
        for x, y, c in ((one, one, GaussRational(Fraction(1, 2))),
                        (one, one, GaussRational(Fraction(1, 3))),
                        (one, one, GaussRational(Fraction(-5, 6))),
                        (xi, one, GaussRational(Fraction(1, 6))), (one, xi, quarter_i),
                        (xi, one, GaussRational(Fraction(1, 3))), (xi, one, quarter_i)):
            add_blade_products(acc, _jet_form(x, table), _jet_form(y, table), table, c)
        assert (0, ()) in acc[1]
        got = _built(2, al, _summed_form(acc), table.key_of)
        want = GaussRational(Fraction(1, 2), Fraction(1, 2))
        assert got == CliffXi(2, al, {(1, ("phi",)): XiExpr.monomial(al, m=1, coeff=want)})
        (g,) = cliffxi_scalars(got)
        assert type(g) is GaussRational and (g.a, g.b, g.d) == (1, 1, 2)
        assert hash(g) == hash(want) and {want: 0}.get(g) == 0

    @given(denominated_triples)
    def test_one_denominator_sums_equal_the_core_sum(self, triples):
        # factor * x * y summed into one accumulator over one denominator,
        # against the sum of the core's products: the head's 1/2 then 1/3
        # raise the accumulator's sums from 2 to the lcm 6, and the tail's
        # 1/2 divides it, so its left terms are scaled by the quotient 3
        dim = triples[0][0].dim
        one = CliffXi.scalar(dim, XiExpr.const(JET_ALPHABET, 1))
        head = [(one, one, GaussRational(Fraction(1, k))) for k in (2, 3)]
        acc, table, denominators = [1, {}], KeyTable(_jet_key_product), []
        want = CliffXi.zero(dim, JET_ALPHABET)
        for x, y, f in head + triples + head[:1]:
            add_blade_products(acc, _jet_form(x, table), _jet_form(y, table), table, f)
            denominators.append(acc[0])
            want = want + SparseTerms._product(x, y).scale(f)
        assert denominators[:2] == [2, 6]
        got = _built(dim, JET_ALPHABET, _summed_form(acc), table.key_of)
        assert got == want
        assert is_clean(got)
        assert all(type(g) is GaussRational and normal(g) for g in cliffxi_scalars(got))

    @given(denominated_pairs)
    def test_one_denominator_products_sum_equals_the_core_sum(self, pairs):
        # the same for _products_sum: the head raises its accumulator from
        # 2 to 6 before the drawn pairs, and the tail divides it
        dim = pairs[0][0].dim
        one, half, third = (CliffordElement.scalar(dim, ALPHABET, Fraction(1, k))
                            for k in (1, 2, 3))
        pairs = [(half, one), (third, one)] + pairs + [(half, one)]
        want = CliffordElement.zero(dim, ALPHABET)
        for x, y in pairs:
            want = want + SparseTerms._product(x, y)
        got = half._products_sum(pairs)
        assert got == want
        assert all(poly.terms and all(type(g) is GaussRational and normal(g)
                                      for g in poly.terms.values())
                   for poly in got.terms.values())

    def test_tangential_keys_merge(self):
        # (c1 xi1 xi2^2 u)(c1 xi1^2 u^-1) = -xi1^3 xi2^2: the tangential keys
        # merge and the blade sign is folded in
        al = JET_ALPHABET
        x = CliffXi(2, al, {(1, ()): XiExpr.monomial(al, p=1, tang=((1, 1), (2, 2)))})
        y = CliffXi(2, al, {(1, ()): XiExpr.monomial(al, p=-1, tang=((1, 2),), coeff=3)})
        want = CliffXi(2, al, {(0, ()): XiExpr.monomial(al, tang=((1, 3), (2, 2)), coeff=-3)})
        assert x * y == want == kernel_product(x, y)

    def test_cliffxi_product_drops_cancelled_blades(self):
        # (c1 + c2)^2 = -2: the c1 c2 and c2 c1 terms cancel
        x = XiExpr(JET_ALPHABET, {(1, 0, 0, 0, ()): ParamPoly.var(JET_ALPHABET, "a"),
                                  (0, 1, 0, 0, ()): GaussRational(1, 2)})
        a = CliffXi(2, JET_ALPHABET, {(1, ("phi",)): x, (2, ("phi",)): x})
        for got in (a * a, kernel_product(a, a)):
            assert set(got.terms) == {(0, ("phi", "phi"))}
            assert got == CliffXi(2, JET_ALPHABET, {(0, ("phi", "phi")): (x * x).scale(-2)})

    def test_cliffxi_products_refuse_mixed_operands(self):
        def cliffxi(dim, alphabet):
            return CliffXi(dim, alphabet, {(1, ()): XiExpr.u_power(alphabet, 1)})

        a = cliffxi(4, JET_ALPHABET)
        for other, error in (
            (cliffxi(6, JET_ALPHABET), DimMismatch),
            (cliffxi(4, ALPHABET), AlphabetMismatch),
        ):
            with pytest.raises(error):
                a * other
            with pytest.raises(error):
                other * a

    def test_subtraction_negates_only_keys_new_to_the_minuend(self, monkeypatch):
        hp0 = ParamPoly.var(JET_ALPHABET, "hp0")
        y = XiExpr(JET_ALPHABET, {(1, 0, 0, 0, ()): hp0 - 1, (0, 2, 0, 0, ()): hp0 * 2})
        x = y + XiExpr(JET_ALPHABET, {(0, 0, 1, 0, ()): hp0 + 5})
        want = x + (-y)
        calls = []
        count_calls(monkeypatch, SparseTerms, "__neg__", calls)
        assert x - y == want
        assert calls == []

    def test_sphere_symbols_refuse_mixed_operands(self):
        def sphere(dim, alphabet):
            return SphereSymbol(
                dim, alphabet, {(1, ()): HalfPlaneRational(alphabet, [1])}
            )

        a = sphere(4, ALPHABET)
        for other, error in (
            (sphere(6, ALPHABET), DimMismatch),
            (sphere(4, JET_ALPHABET), AlphabetMismatch),
        ):
            with pytest.raises(error):
                a + other
            with pytest.raises(error):
                a * other
        assert (a * a).coefficient(0) == HalfPlaneRational(ALPHABET, [-1])
        assert (a + a).terms == {(1, ()): HalfPlaneRational(ALPHABET, [2])}


def snapshot(v):
    """The terms of v as nested plain dicts, down to each scalar's triple."""
    return {k: snapshot(c) if isinstance(c, SparseTerms) else (c.a, c.b, c.d)
            for k, c in v.terms.items()}


def assert_unchanged(operands, *ops):
    """Run each op, then check that no operand's terms changed."""
    before = [snapshot(v) for v in operands]
    for op in ops:
        try:
            op()
        except NonCanonicalInput:  # an even tangential power on the sphere
            pass
    assert [snapshot(v) for v in operands] == before


def label_trace(alphabet):
    return lambda label: ParamPoly.var(alphabet, "a") if label else ParamPoly.const(alphabet, 2)


class TestOperandsUnchanged:
    """No operation writes into its operands; the n-ary sum plus starts from
    a nonempty value, so a sum that wrote into its start's own map fails."""

    @given(polys, polys, assignments)
    def test_polynomials(self, p, q, point):
        partial = {"a": point["a"]}
        assert p.plus([q, p]) == p + q + p
        assert_unchanged(
            (p, q), lambda: p + q, lambda: p - q, lambda: -p, lambda: p * q,
            lambda: p.scale(q), lambda: p.subs(partial), lambda: p.subs(point),
            lambda: p.plus([q, p]), lambda: q.plus([p]),
        )

    @given(jets, jets)
    def test_jets(self, x, y):
        c = next(iter(y.terms.values()), ParamPoly.const(JET_ALPHABET, 3))
        assert x.plus([y, x]) == x + y + x
        assert_unchanged(
            (x, y, c), lambda: x + y, lambda: x - y, lambda: x * y, lambda: x.scale(c),
            lambda: x.d_xn(), lambda: x.d_xin(), lambda: x.restrict_sphere(),
            lambda: x.plus([y, x]),
        )

    @given(cliffxi_pairs, jets)
    def test_clifford_valued_symbols(self, ab, x):
        a, b = ab
        assert a.plus([b, a]) == a + b + a
        assert_unchanged(
            (a, b, x), lambda: a + b, lambda: a - b, lambda: a * b,
            lambda: SparseTerms.scale(a, x),
            lambda: a.scale(GR_I), lambda: a.d_xn(), lambda: a.d_xin(2),
            lambda: a.restrict_sphere(), lambda: a.mul_grade0(b),
            lambda: a.trace(label_trace(JET_ALPHABET)), lambda: a.plus([b, a]),
        )

    @given(labelled_pairs)
    def test_clifford_elements(self, ab):
        a, b = ab
        assert a.plus([b, a]) == a + b + a
        assert_unchanged(
            (a, b), lambda: a + b, lambda: a - b, lambda: a * b,
            lambda: a.mul_grade0(b), lambda: a.trace(label_trace(ALPHABET)),
            lambda: a.plus([b, a]),
        )


# The same products, over two alphabets and two dimensions, run in this
# process and in a fresh one; the printed results must agree.
PRODUCTS = """
from fractions import Fraction
from ncresidue.clifford import CliffordElement
from ncresidue.exact import Alphabet, GaussRational, ParamPoly
from ncresidue.geometry import standard_alphabet
from ncresidue.symbols import invert_symbol, laplace_symbol
out = []
for names in (("a", "b"), ("b", "c", "a")):
    al = Alphabet(names)
    a, b = ParamPoly.var(al, "a"), ParamPoly.var(al, "b", 2)
    p = a * Fraction(1, 3) + b * GaussRational(0, Fraction(1, 2)) - 1
    out.append(str(p * p * (p - a)))
    for dim in (2, 4):
        e = CliffordElement.from_vector(dim, al, [p] * dim, ("phi",))
        e = e + CliffordElement.scalar(dim, al, b)
        out.append(sorted((str(k), str(c)) for k, c in (e * e * e).terms.items()))
for dim, depth in ((2, 3), (4, 2)):
    inverse = invert_symbol(laplace_symbol(dim, standard_alphabet(dim)), depth)
    out.append([str(q) for _, q in inverse.items()])
"""


def run_products():
    scope = {}
    exec(PRODUCTS, scope)
    return json.loads(json.dumps(scope["out"]))


def count_calls_of(monkeypatch, module, name):
    """Record the argument pairs of every call of module.name."""
    calls, fn = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda k1, k2: calls.append((k1, k2)) or fn(k1, k2))
    return calls


class TestMergeMemos:
    # a memo of key products lives for one kernel call: it merges each key
    # pair met in the call once, keeps nothing between calls, and hands out
    # tuples

    def test_monomial_pairs_merge_once_per_product(self, monkeypatch):
        al = JET_ALPHABET
        a, b = ParamPoly.var(al, "a"), ParamPoly.var(al, "b")
        p = (a + b + 1) * (a - 2)
        x = CliffordElement(2, al, {(1, ()): p, (2, ("phi",)): p * b, (3, ()): p + 3})
        monos = {m for c in x.terms.values() for m in c.terms if m}
        calls = count_calls_of(monkeypatch, clifford, "_merge_monomials")
        got = x._products_sum(((x, x),))
        assert sorted(calls) == sorted((m1, m2) for m1 in monos for m2 in monos)
        x._products_sum(((x, x), (x, x)))
        assert len(calls) == 2 * len(monos) ** 2
        assert got == SparseTerms._product(x, x)
        assert all(type(m) is tuple and all(type(f) is tuple for f in m)
                   for c in got.terms.values() for m in c.terms)

    def test_jet_key_pairs_merge_once_per_call(self, monkeypatch):
        al = JET_ALPHABET
        a, b = ParamPoly.var(al, "a"), ParamPoly.var(al, "b")
        p = (a + b + 1) * (a - 2)
        x = CliffXi(2, al, {(1, ()): XiExpr(al, {(1, 0, 0, 0, ()): p}),
                            (2, ()): XiExpr(al, {(0, 1, 0, 0, ((1, 1),)): p * b}),
                            (3, ()): XiExpr(al, {(1, 0, 0, 0, ()): p * 3})})
        keys = {(jk, m) for xe in x.terms.values()
                for jk, c in xe.terms.items() for m in c.terms}
        calls = count_calls_of(monkeypatch, symbols, "_jet_key_product")
        sx = SymbolExpansion(2, al, {0: x})
        got = compose_symbols(sx, sx, 0)[0]
        assert sorted(calls) == sorted((k1, k2) for k1 in keys for k2 in keys)
        compose_symbols(sx, sx, 0)
        assert len(calls) == 2 * len(keys) ** 2
        assert got == SparseTerms._product(x, x)

    def test_closures_grow_no_module_level_cache(self):
        # the benchmark's two symbol closures, in a fresh interpreter: every
        # memo of exact, clifford and symbols lives for one call, so no
        # module- or class-level cache or container is larger afterwards,
        # and no key table is left
        code = """
import gc
from fractions import Fraction
from ncresidue import clifford, exact, symbols
from ncresidue.geometry import GeometricBundle, lichnerowicz_normal_form, standard_alphabet
from ncresidue.symbols import CliffXi, XiExpr, compose_symbols, invert_symbol, laplace_symbol

def sizes():
    out = {}
    for mod in (exact, clifford, symbols):
        spaces = [(mod.__name__, vars(mod))] + [
            (f"{mod.__name__}.{c.__name__}", vars(c)) for c in vars(mod).values()
            if isinstance(c, type) and c.__module__ == mod.__name__]
        for where, space in spaces:
            for name, v in space.items():
                if hasattr(v, "cache_info"):
                    out[f"{where}.{name}"] = v.cache_info().currsize
                elif isinstance(v, (dict, list, set)) and not name.startswith("__"):
                    out[f"{where}.{name}"] = len(v)
    return out

# each recursion makes one key table and merges each key pair once in it
made, merged = [], []
table, jet_key_product = symbols.KeyTable, symbols._jet_key_product
symbols.KeyTable = lambda mul: made.append(mul) or table(mul)
symbols._jet_key_product = lambda k1, k2: merged.append((k1, k2)) or jet_key_product(k1, k2)

before = sizes()
for n, depth in ((4, 3), (6, 2)):
    al = standard_alphabet(n)
    point = {name: Fraction(k % 7 - 3, k % 4 + 1) or Fraction(1, 5)
             for k, name in enumerate(al.names) if name != "hp0"}
    b = lichnerowicz_normal_form(GeometricBundle(n)).B
    op = laplace_symbol(n, al, b_term=b)
    for order, cx in op.orders.items():
        op.orders[order] = CliffXi(n, al, {
            key: XiExpr(al, {m: p.subs(point) for m, p in xe.terms.items()})
            for key, xe in cx.terms.items()})
    made.clear()
    merged.clear()
    inverse = invert_symbol(op, depth)
    assert len(made) == 1 and merged and len(set(merged)) == len(merged), n
    made.clear()
    merged.clear()
    comp = compose_symbols(op, inverse, -2)
    assert len(made) == 1 and merged and len(set(merged)) == len(merged), n
    assert comp[0] == CliffXi.scalar(n, XiExpr.const(al, 1)), n
    assert comp[-1].is_zero() and comp[-2].is_zero(), n
after = sizes()
assert after == before, {k: (before.get(k), v) for k, v in after.items()}
# and no key table outlives its call
gc.collect()
assert not [t for t in gc.get_objects() if type(t) is exact.KeyTable]
"""
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_products_equal_a_fresh_process(self):
        first, again = run_products(), run_products()
        fresh = subprocess.run(
            [sys.executable, "-c", PRODUCTS + "import json\nprint(json.dumps(out))"],
            capture_output=True, text=True, check=True,
        )
        assert first == again == json.loads(fresh.stdout)
