"""Geometric data bundle, normal form, and interior density."""

import random
from fractions import Fraction

import pytest

from ncresidue.errors import (
    NonAntisymmetricTorsion,
    OddDimension,
    UnsupportedDimension,
    ValidationError,
)
from ncresidue.clifford import (
    CliffordElement,
    _triples,
    blade_mul,
    torsion_element,
    twisted_trace,
)
from ncresidue import geometry
from ncresidue.exact import GaussRational, ParamPoly, SparseTerms
from ncresidue.geometry import (
    GeometricBundle,
    connection_and_E,
    interior_wres,
    lichnerowicz_normal_form,
    standard_alphabet,
    standard_label_trace,
    trace_E_density,
    trace_density_report,
)
from ncresidue.symbols import CliffXi, laplace_symbol
from ncresidue.oracle import poly_params
from conftest import rand_assignment
from test_acceptance import random_bundle
from test_symbols import subs_expansion


def b_jet_summands(jets):
    """-c_j dW_j for each jet dW_j of W: the jet summands of B."""
    return [(-CliffordElement.generator(dw.dim, dw.alphabet, j), dw)
            for j, dw in enumerate(jets, 1)]


def e_jet_summands(jets):
    """1/2 (c_j dW_j + dW_j c_j) for each jet dW_j of W: the jet summands of
    E - B, which only the full assembly connection_and_E adds."""
    halves = [CliffordElement.generator(dw.dim, dw.alphabet, j).scale(Fraction(1, 2))
              for j, dw in enumerate(jets, 1)]
    return [f for h, dw in zip(halves, jets) for f in ((h, dw), (dw, h))]


def mono(*pairs):
    return tuple(sorted(pairs))


class TestStandardAlphabet:
    def test_core_names_present(self):
        al = standard_alphabet(4)
        for name in ("hp0", "s", "divX", "divY", "dimF", "trPhi", "trPhi2",
                     "VolS", "X_1", "X_4", "Y_2", "T_1_2_3"):
            assert name in al.names

    @pytest.mark.parametrize("n, error", [
        ("4", ValidationError), (4.0, ValidationError), (True, ValidationError),
        ([4], ValidationError), (None, ValidationError), (3, OddDimension),
        (0, OddDimension), (-2, OddDimension), (14, UnsupportedDimension),
    ], ids=["str", "float", "bool", "list", "none", "odd", "zero", "negative", "fourteen"])
    def test_refuses_what_the_bundle_refuses(self, monkeypatch, n, error):
        # before any alphabet is built or cached, with the bundle's error
        with pytest.raises(error) as want:
            GeometricBundle(n)
        monkeypatch.setattr(geometry, "_alphabet", None)
        with pytest.raises(error) as got:
            standard_alphabet(n)
        assert str(got.value) == str(want.value)
        if error is ValidationError:
            assert got.value.field == "n"

    def test_label_trace_rules(self):
        al = standard_alphabet(4)
        rule = standard_label_trace(al)
        assert rule(()) == ParamPoly.var(al, "dimF")
        assert rule(("phi",)) == ParamPoly.var(al, "trPhi")
        assert rule(("phi", "phi")) == ParamPoly.var(al, "trPhi2")
        with pytest.raises(ValidationError):
            rule(("phi", "phi", "phi"))


class TestGeometricBundle:
    def test_rejects_odd_dimension(self):
        with pytest.raises(OddDimension):
            GeometricBundle(5)

    @pytest.mark.parametrize("n", [True, 4.0])
    def test_rejects_non_integer_dimension(self, n):
        with pytest.raises(ValidationError):
            GeometricBundle(n)

    def test_rejects_dimension_past_twelve(self, monkeypatch):
        # refused before the n^4 alphabet is built
        monkeypatch.setattr(geometry, "_alphabet", None)
        for n in (14, 40):
            with pytest.raises(UnsupportedDimension):
                GeometricBundle(n)
        monkeypatch.undo()
        assert [GeometricBundle(n).n for n in range(2, 13, 2)] == [2, 4, 6, 8, 10, 12]

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"torsion": {(1, 2, 3): "x"}}, "torsion[1,2,3]"),
         ({"torsion": {(1, 2, 3): True}}, "torsion[1,2,3]"),
         ({"s": 0.5}, "s"), ({"s": [1]}, "s"), ({"s": "1/0"}, "s"),
         ({"s": True}, "s"), ({"hprime0": "1e10000000"}, "hprime0"),
         ({"X": 5}, "X"), ({"Y": [1, 2, 3, None]}, "Y[3]"), ({"sigma": 1}, "scalars")],
        ids=["torsion_word", "torsion_bool", "float", "list", "zero_denominator",
             "bool", "exponent", "vector_int", "vector_none", "unknown_scalar"],
    )
    def test_bad_value_names_its_field(self, kwargs, field):
        with pytest.raises(ValidationError) as exc:
            GeometricBundle(4, **kwargs)
        assert exc.value.field == field

    @pytest.mark.parametrize(
        "kwargs, field",
        [({"s": 10 ** 5000}, "s"), ({"hprime0": Fraction(1, 10 ** 5000)}, "hprime0"),
         ({"X": [(10 ** 5000 - 1) // 9, 1, 1, 1]}, "X[0]"),
         ({"torsion": {(1, 2, 3): -10 ** 5000}}, "torsion[1,2,3]")],
        ids=["int", "denominator", "vector", "torsion"],
    )
    def test_unrenderable_value_names_its_field(self, kwargs, field):
        # str() refuses an int past Python's int-string digit limit, and
        # every report renders the point data
        with pytest.raises(ValidationError, match="too many digits") as exc:
            GeometricBundle(4, **kwargs)
        assert exc.value.field == field

    def test_torsion_strings_read_before_folding(self):
        assert GeometricBundle(4, torsion={(2, 1, 3): "1/2"}).torsion == {
            (1, 2, 3): Fraction(-1, 2)
        }
        assert GeometricBundle(4, torsion={(1, 1, 3): "0"}).torsion == {}

    def test_rejects_wrong_vector_length(self):
        with pytest.raises(ValidationError):
            GeometricBundle(4, X=[Fraction(1)] * 3)

    def test_torsion_folds_permutations(self):
        g = GeometricBundle(
            4, torsion={(2, 1, 3): Fraction(1), (1, 2, 4): Fraction(2)}
        )
        assert g.torsion == {(1, 2, 3): Fraction(-1), (1, 2, 4): Fraction(2)}

    def test_torsion_antisymmetry_conflict(self):
        with pytest.raises(NonAntisymmetricTorsion):
            GeometricBundle(
                4, torsion={(2, 1, 3): Fraction(1), (1, 2, 3): Fraction(1)}
            )

    def test_torsion_repeated_index(self):
        with pytest.raises(NonAntisymmetricTorsion):
            GeometricBundle(4, torsion={(1, 1, 3): Fraction(1)})
        # a zero value on a degenerate triple is just dropped
        assert GeometricBundle(4, torsion={(1, 1, 3): Fraction(0)}).torsion == {}

    @pytest.mark.parametrize(
        "torsion",
        [{(1, 2): 1}, [(1, 2, 3, 1)], {(1, 2, "x"): 1}, {(1, 2, 3, 4): 1}, {"123": 1}],
        ids=["pair_key", "list", "str_index", "four_indices", "str_key"],
    )
    def test_malformed_torsion_rejected(self, torsion):
        with pytest.raises(ValidationError) as exc:
            GeometricBundle(4, torsion=torsion)
        assert exc.value.field == "torsion"

    def test_assignment_pinned(self):
        g = GeometricBundle(
            4,
            torsion={(2, 1, 3): 1, (1, 2, 4): 2},
            X=[1, 2, 3, 4],
            Y=[Fraction(1, 2), 0, -1, 3],
            s=Fraction(5, 3),
            hprime0=-2,
        )
        expected = {
            "s": Fraction(5, 3),
            "hp0": -2,
            "X_1": 1, "X_2": 2, "X_3": 3, "X_4": 4,
            "Y_1": Fraction(1, 2), "Y_2": 0, "Y_3": -1, "Y_4": 3,
            # (2, 1, 3) folds onto (1, 2, 3) with its sign; unnamed triples are 0
            "T_1_2_3": -1, "T_1_2_4": 2, "T_1_3_4": 0, "T_2_3_4": 0,
        }
        got = g.assignment()
        assert got == {k: GaussRational.from_value(v) for k, v in expected.items()}
        assert all(type(v) is GaussRational for v in got.values())
        assert GeometricBundle(4).assignment() == {}
        # torsion given but empty: every triple is explicitly zero
        assert GeometricBundle(4, torsion={}).assignment() == {
            f"T_{a}_{b}_{c}": GaussRational(0) for a, b, c in _triples(4)
        }

    def test_assignment_is_a_copy(self):
        g = GeometricBundle(4, s=Fraction(7))
        s_var, dimF = (ParamPoly.var(g.alphabet, k) for k in ("s", "dimF"))
        handed = g.assignment()
        handed["s"] = GaussRational(99)
        handed["dimF"] = GaussRational(2)
        assert g.subs(s_var) == ParamPoly.const(g.alphabet, 7)
        assert g.subs(dimF) == dimF
        assert g.assignment() == {"s": GaussRational(7)}

    def test_symbolic_assignment_roundtrip(self):
        g = GeometricBundle(4, s=Fraction(7), dimF=Fraction(2))
        assignment = g.assignment()
        assert assignment["s"] == Fraction(7)
        assert assignment["dimF"] == Fraction(2)


class TestNormalForm:
    def test_shapes(self):
        geo = GeometricBundle(4)
        nf = lichnerowicz_normal_form(geo)
        assert len(nf.Ai) == 4
        omega, E = connection_and_E(nf)
        assert len(omega) == 4
        # E is a CliffordElement over the standard alphabet
        assert E.dim == 4

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_first_order_blocks_match_clifford_products(self, n):
        # A^j = -(X_j / 2 + c_j W + W c_j), with W = c(T) + c(Y) carrying
        # one phi label, formed here generator by generator and by two
        # Clifford products per K_j
        al = standard_alphabet(n)
        gens = [CliffordElement.generator(n, al, j) for j in range(1, n + 1)]
        w = torsion_element(n, al, {
            t: ParamPoly.var(al, "T_{}_{}_{}".format(*t)) for t in _triples(n)
        }, label=("phi",))
        for j, g in enumerate(gens, 1):
            w = w + g.scale(ParamPoly.var(al, f"Y_{j}")).with_label(("phi",))
        nf = lichnerowicz_normal_form(GeometricBundle(n))
        for j, g in enumerate(gens, 1):
            drift = CliffordElement.scalar(
                n, al, ParamPoly.var(al, f"X_{j}") * Fraction(1, 2)
            )
            assert nf.Ai[j - 1] == -(drift + g * w + w * g)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_blocks_equal_the_left_fold_of_their_summands(self, n):
        # B, and E from B, summed in one map against their scalars plus the
        # products of their factor pairs added one by one, each the core's
        al = standard_alphabet(n)
        geo = GeometricBundle(n)
        ai, b_scalar, b_pairs = geometry._normal_form_parts(geo)
        nf = lichnerowicz_normal_form(geo)
        b = CliffordElement.scalar(n, al, b_scalar)
        assert nf.B == _fold(b, b_pairs + b_jet_summands(nf.jets))
        _, e_scalar, e_pairs = geometry._connection_parts(geo, ai)
        e = nf.B + CliffordElement.scalar(n, al, e_scalar)
        assert connection_and_E(nf)[1] == _fold(e, e_pairs + e_jet_summands(nf.jets))

    @pytest.mark.parametrize("n", [4, 6])
    def test_jet_summands_cancel_in_the_grade0_part(self, n):
        # c_j A and A c_j have the same grade-0 part (tr(c_j A) = tr(A c_j)),
        # so -c_j dW_j in B and 1/2 (c_j dW_j + dW_j c_j) in E - B leave
        # nothing for tr(E), which is why the trace never builds them
        nf = lichnerowicz_normal_form(GeometricBundle(n))
        in_b, in_e = b_jet_summands(nf.jets), e_jet_summands(nf.jets)
        assert len(in_b) == n and len(in_e) == 2 * n

        def grade0(summands):
            return CliffordElement.zero(n, nf.alphabet).plus(x.mul_grade0(y) for x, y in summands)

        assert not grade0(in_b).is_zero()
        assert grade0(in_b + in_e).is_zero()

    @pytest.mark.parametrize("numeric", [False, True])
    def test_B_holds_minus_c_j_times_the_jet_of_W(self, numeric):
        # the coefficient of dT_j_a_b_c in B is that of -c_j c_a c_b c_c (one
        # phi label), for j inside the triple and outside it; the jets stay
        # symbolic under point data
        n = 4
        geo = random_bundle(n, random.Random(7)) if numeric else GeometricBundle(n)
        b = lichnerowicz_normal_form(geo).B
        for j in range(1, n + 1):
            for t in _triples(n):
                mask, sign = blade_mul(1 << (j - 1), sum(1 << (i - 1) for i in t))
                coeff = b.coefficient(mask, ("phi",)).coefficient(
                    ((f"dT_{j}_{t[0]}_{t[1]}_{t[2]}", 1),))
                assert coeff == GaussRational(-sign)

    def test_jets_of_w_are_built_once(self, monkeypatch):
        calls = []
        jet = geometry.twist_vector_jet

        def counted(*args):
            calls.append(args)
            return jet(*args)

        monkeypatch.setattr(geometry, "twist_vector_jet", counted)
        connection_and_E(lichnerowicz_normal_form(GeometricBundle(4)))
        assert len(calls) == 4


def _fold(start, pairs):
    """start plus the products x * y of pairs added one by one, each the core's."""
    for x, y in pairs:
        start = start + SparseTerms._product(x, y)
    return start


def _b_summands(nf):
    """B at the base point, summand by summand, from the formula

        B = -s/4 - sum_{i<j} RF_ij c_i c_j + |X|^2/16
            + 1/4 sum_{j<l} (dX_jl - dX_lj) c_j c_l - 1/4 sum_{j,l} d_jX_l c_j c_l
            - 1/4 (W c(X) + c(X) W) - W^2 - sum_j c_j d_jW,

    minus the drift moment term and the drift's first jet as two loops,
    d_jX_l = dX_jl off the diagonal and divX/n on it; each product is the
    core's.  W = c(T) + c(Y) with one phi label, and the jets d_jW, come from
    twist_vector and nf.jets; the bundle's point data sits at the leaves.
    """
    geo = nf.geo
    n, al, point = geo.n, geo.alphabet, geo.assignment()
    gens = [CliffordElement.generator(n, al, j) for j in range(1, n + 1)]
    quarter = Fraction(1, 4)

    def var(name):
        return geometry._var(al, name, point)

    def scalar(value):
        return CliffordElement.scalar(n, al, value)

    def jet(j, l):
        return var("divX") * Fraction(1, n) if j == l else var(f"dX_{j}_{l}")

    w = geometry.twist_vector(n, al, point=point)
    cx = CliffordElement.from_vector(n, al, [var(f"X_{j}") for j in range(1, n + 1)])
    out = [scalar(-(var("s") * quarter))]
    out += [-(gens[i - 1].with_label((f"RF_{i}_{j}",)) * gens[j - 1])
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out += [scalar(var(f"X_{j}") * var(f"X_{j}") * Fraction(1, 16)) for j in range(1, n + 1)]
    out += [(gens[j - 1] * gens[l - 1]).scale((jet(j, l) - jet(l, j)) * quarter)
            for j in range(1, n + 1) for l in range(j + 1, n + 1)]
    out += [(gens[j - 1] * gens[l - 1]).scale(-jet(j, l) * quarter)
            for j in range(1, n + 1) for l in range(1, n + 1)]
    out.append((w * cx + cx * w).scale(-quarter))
    out.append(-(w * w))
    out += [-(gens[j - 1] * dw) for j, dw in enumerate(nf.jets, 1)]
    return out


def _e_minus_b_summands(nf):
    """E - B at the base point, summand by summand: for each j the drift
    part divX/(4n) of the jet of omega_j = A^j/2, -omega_j^2, and the jet
    halves 1/2 (c_j d_jW + d_jW c_j); each product is the core's."""
    n, al = nf.dim, nf.alphabet
    divx = geometry._var(al, "divX", nf.geo.assignment())
    out = []
    for j in range(1, n + 1):
        omega = nf.Ai[j - 1].scale(Fraction(1, 2))
        half = CliffordElement.generator(n, al, j).scale(Fraction(1, 2))
        dw = nf.jets[j - 1]
        out += [CliffordElement.scalar(n, al, divx * Fraction(1, 4 * n)), -(omega * omega),
                half * dw, dw * half]
    return out


class TestDriftJet:
    # B and E - B as their formulas state them, each summand with its own
    # loop, the drift's first jet among them as two loops where B and E - B
    # state one scalar: nothing here reads _normal_form_parts or
    # _connection_parts

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("numeric", [False, True], ids=["symbolic", "random"])
    def test_B_and_trace_equal_the_two_loop_formula(self, n, numeric):
        geo = random_bundle(n, random.Random(4400 + n)) if numeric else GeometricBundle(n)
        al = geo.alphabet
        nf = lichnerowicz_normal_form(geo)
        b, e_minus_b = _b_summands(nf), _e_minus_b_summands(nf)
        zero = CliffordElement.zero(n, al)
        assert nf.B == zero.plus(b)
        grade0 = zero.plus(x.grade(0) for x in b + e_minus_b)
        # the label trace's dimF, trPhi and trPhi2 take the point data too
        assert trace_E_density(geo) == geo.subs(twisted_trace(grade0, standard_label_trace(al)))

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("numeric", [False, True], ids=["symbolic", "random"])
    def test_E_equals_B_plus_its_formula(self, n, numeric):
        geo = random_bundle(n, random.Random(4410 + n)) if numeric else GeometricBundle(n)
        nf = lichnerowicz_normal_form(geo)
        omega, E = connection_and_E(nf)
        assert omega == [a.scale(Fraction(1, 2)) for a in nf.Ai]
        assert E == nf.B.plus(_e_minus_b_summands(nf))


def _point_data(kind, n):
    if kind == "random":
        return random_bundle(n, random.Random(2600 + n))
    if kind == "only_X":
        return GeometricBundle(n, X=[Fraction(k - 1, 3) for k in range(n)])
    return GeometricBundle(n, torsion={(1, 2, 3): Fraction(2, 5), (2, 3, 4): -1})


POINT_DATA = [("random", 4), ("random", 6), ("random", 8), ("only_X", 4), ("only_torsion", 6)]


class TestPointDataNormalForm:
    # lichnerowicz_normal_form puts a bundle's point data at its leaves; the
    # oracle is the symbolic normal form with that data substituted after

    @pytest.mark.parametrize("kind, n", POINT_DATA)
    def test_blocks_equal_the_symbolic_ones_substituted(self, kind, n):
        geo = _point_data(kind, n)
        nf = lichnerowicz_normal_form(geo)
        sym = lichnerowicz_normal_form(GeometricBundle(n))

        def subs(elements):
            return [x._map(geo.subs) for x in elements]

        assert nf.Ai == subs(sym.Ai)
        assert nf.B == sym.B._map(geo.subs)
        assert nf.jets == subs(sym.jets)
        omega, E = connection_and_E(nf)
        sym_omega, sym_E = connection_and_E(sym)
        assert omega == subs(sym_omega)
        assert E == sym_E._map(geo.subs)
        if kind == "random":
            # every name the bundle sets is gone from B; its jets stay
            names = set().union(*(poly_params(c) for c in nf.B.terms.values()))
            assert names and all(name.startswith(("dX_", "dY_", "dT_")) for name in names)

    @pytest.mark.parametrize("n", [4, 6])
    def test_closure_recipe_gives_the_same_operator(self, n):
        # the benchmark's closures: normal form, laplace_symbol, and every
        # parameter, jets included, substituted
        geo = random_bundle(n, random.Random(2601 + n))
        al = geo.alphabet
        full = {**rand_assignment(al, random.Random(n), span=3), **geo.assignment()}
        ops = [subs_expansion(laplace_symbol(n, al, b_term=lichnerowicz_normal_form(g).B), full)
               for g in (geo, GeometricBundle(n))]
        assert ops[0].orders == ops[1].orders
        assert not ops[0][0].is_zero()


class TestLibraryInputs:
    @pytest.mark.parametrize("geo", ["x", 4, None, {"n": 4}], ids=["str", "int", "none", "dict"])
    def test_normal_form_refuses_a_non_bundle(self, geo):
        with pytest.raises(ValidationError) as err:
            lichnerowicz_normal_form(geo)
        assert err.value.field == "geo"

    @pytest.mark.parametrize("nf", [GeometricBundle(4), "x", None], ids=["bundle", "str", "none"])
    def test_connection_and_E_refuses_a_non_normal_form(self, nf):
        # each let a raw AttributeError out
        with pytest.raises(ValidationError) as err:
            connection_and_E(nf)
        assert err.value.field == "nf"

    @pytest.mark.parametrize("b_term", [
        3, "x", Fraction(1, 2),
        ParamPoly.var(standard_alphabet(4), "s"),
        CliffXi.zero(4, standard_alphabet(4)),
    ], ids=["int", "str", "fraction", "poly", "cliffxi"])
    def test_laplace_symbol_refuses_a_non_clifford_b_term(self, b_term):
        with pytest.raises(ValidationError) as err:
            laplace_symbol(4, standard_alphabet(4), b_term=b_term)
        assert err.value.field == "b_term"


class TestInteriorDensity:
    @pytest.mark.parametrize("fn", [trace_E_density, interior_wres])
    def test_unknown_mode_rejected(self, fn):
        with pytest.raises(ValidationError) as err:
            fn(GeometricBundle(4), "bogus")
        assert err.value.field == "mode"

    @pytest.mark.parametrize("fn", [trace_E_density, interior_wres])
    @pytest.mark.parametrize("geo", ["x", 4, None, {"n": 4}], ids=["str", "int", "none", "dict"])
    def test_non_bundle_refused_before_the_mode(self, fn, geo):
        # the error, and its message, of lichnerowicz_normal_form
        with pytest.raises(ValidationError) as want:
            lichnerowicz_normal_form(geo)
        for mode in ("oracle", "bogus"):
            with pytest.raises(ValidationError) as err:
                fn(geo, mode)
            assert err.value.field == "geo"
            assert str(err.value) == str(want.value)

    @pytest.mark.parametrize("n", [4, 6])
    def test_oracle_assembly_identity(self, n):
        # density = (1/6) s tr(id) + Tr(E), with tr(id) = 2^{n/2} dimF
        geo = GeometricBundle(n)
        al = geo.alphabet
        density, (pi_power, prefactor) = interior_wres(geo, mode="oracle")
        assembled = (
            ParamPoly.var(al, "s")
            * ParamPoly.var(al, "dimF")
            * ParamPoly.const(al, Fraction(2 ** (n // 2), 6))
            + trace_E_density(geo, mode="oracle")
        )
        assert density == assembled
        assert pi_power == n // 2

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_trace_only_density_matches_full_assembly(self, n):
        geo = GeometricBundle(n)
        _, E = connection_and_E(lichnerowicz_normal_form(geo))
        full = twisted_trace(E, standard_label_trace(geo.alphabet))
        assert trace_E_density(geo, mode="oracle") == full
        numeric = GeometricBundle(
            n,
            torsion={(1, 2, 3): Fraction(2, 3)},
            X=[Fraction(k, 2) for k in range(n)],
            Y=[Fraction(1 - k, 3) for k in range(n)],
            s=Fraction(5),
            trPhi2=Fraction(-1, 7),
        )
        assert trace_E_density(numeric, mode="oracle") == numeric.subs(full)

    def test_returned_density_is_callers_own(self):
        geo = GeometricBundle(4)
        first = trace_E_density(geo, mode="oracle")
        expected = ParamPoly(first.alphabet, dict(first.terms))
        first.terms.clear()
        assert trace_E_density(geo, mode="oracle") == expected
        assert not expected.is_zero()

    def test_printed_density_is_callers_own(self):
        geo = GeometricBundle(4)
        first = trace_E_density(geo, mode="printed")
        expected = ParamPoly(first.alphabet, dict(first.terms))
        first.terms.clear()
        assert trace_E_density(geo, mode="printed") == expected
        assert not expected.is_zero()

    @pytest.mark.parametrize("n", [4, 6])
    def test_trace_E_quarter_s_term(self, n):
        geo = GeometricBundle(n)
        tre = trace_E_density(geo, mode="oracle")
        coeff = tre.coefficient(mono(("s", 1), ("dimF", 1)))
        assert coeff == GaussRational(Fraction(-2 ** (n // 2), 4))

    @pytest.mark.parametrize("n", [4, 6])
    def test_s_coefficients_oracle_vs_printed(self, n):
        geo = GeometricBundle(n)
        key = mono(("s", 1), ("dimF", 1))
        oracle, _ = interior_wres(geo, mode="oracle")
        printed, _ = interior_wres(geo, mode="printed")
        assert oracle.coefficient(key) == GaussRational(
            Fraction(-2 ** (n // 2), 12)
        )
        assert printed.coefficient(key) == GaussRational(Fraction(-2 ** n, 12))

    @pytest.mark.parametrize("mode", ["oracle", "printed"])
    @pytest.mark.parametrize("n", [4, 6])
    def test_density_at_point_data_is_the_substituted_density(self, n, mode):
        # the s tr(id)/6 term must take the point data like tr(E) does
        geo = GeometricBundle(n, s=Fraction(5), dimF=Fraction(3), divX=Fraction(-1, 2))
        density, _ = interior_wres(geo, mode)
        symbolic, _ = interior_wres(GeometricBundle(n), mode)
        assert density == geo.subs(symbolic)

    def test_density_report_structure(self):
        recs = {r["term"]: r for r in trace_density_report(4)}
        # normalized probes that agree between oracle and printed forms
        for term in ("scalar_curvature", "drift_divergence", "drift_pairing",
                     "torsion_square"):
            assert recs[term]["agree"] is True
        # known disagreements, reported as data
        for term in ("vector_square", "identity_trace_prefactor",
                     "twist_terms_dimF_factor"):
            assert recs[term]["agree"] is False

    def test_all_zero_data_zero_density(self):
        n = 4
        geo = GeometricBundle(
            n,
            torsion={},
            X=[Fraction(0)] * n,
            Y=[Fraction(0)] * n,
            s=Fraction(0),
            divX=Fraction(0),
            divY=Fraction(0),
            dimF=Fraction(0),
            trPhi=Fraction(0),
            trPhi2=Fraction(0),
            hprime0=Fraction(0),
        )
        density, _ = interior_wres(geo, mode="oracle")
        assert density.subs(geo.assignment()).is_zero()
