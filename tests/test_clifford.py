"""Clifford algebra engine: blade products, traces, matrix oracle."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from ncresidue.clifford import (
    CliffordElement,
    SpinorMatrix,
    blade_matrix,
    blade_mul,
    clifford_matrix_rep,
    represent,
    spinor_trace,
    torsion_element,
    twisted_trace,
    verify_trace_lemmas,
)
from ncresidue import oracle
from ncresidue.boundary import SphereSymbol
from ncresidue.exact import GR_ONE, GR_ZERO, Alphabet, GaussRational, ParamPoly
from ncresidue.errors import (
    AlphabetMismatch,
    DimMismatch,
    IndexOutOfRange,
    NonIncreasingTriple,
    UnsupportedDimension,
    ValidationError,
)
from ncresidue.symbols import CliffXi, XiExpr
from ncresidue.oracle import constant_value
from conftest import rand_gauss, rand_poly

EMPTY = Alphabet([])


def rand_element(n, alphabet, rng, blades=5, label=()):
    terms = {}
    for _ in range(blades):
        mask = rng.randrange(1 << n)
        coeff = ParamPoly.const(alphabet, rand_gauss(rng))
        key = (mask, label)
        terms[key] = terms.get(key, ParamPoly.zero(alphabet)) + coeff
    return CliffordElement(n, alphabet, terms)


class TestBladeMul:
    def test_generator_square_is_minus_one(self):
        assert blade_mul(1, 1) == (0, -1)
        assert blade_mul(2, 2) == (0, -1)

    def test_anticommutation_signs(self):
        m1, s1 = blade_mul(1, 2)
        m2, s2 = blade_mul(2, 1)
        assert m1 == m2 == 3
        assert s1 == -s2

    def test_scalar_identity(self):
        assert blade_mul(0, 13) == (13, 1)
        assert blade_mul(13, 0) == (13, 1)

    def test_sign_rule_counts_transpositions(self):
        # every blade pair at n = 6 against a count written out: bubble-sort
        # the generators of a then b (equal ones never swap, so each swap is
        # an anticommutation), then contract each shared generator to -1
        for a in range(1 << 6):
            for b in range(1 << 6):
                seq = [j for j in range(6) if a >> j & 1] + [j for j in range(6) if b >> j & 1]
                swaps = sum(x > y for k, x in enumerate(seq) for y in seq[k + 1:])
                contractions = (a & b).bit_count()
                assert blade_mul(a, b) == (a ^ b, (-1) ** (swaps + contractions))


class TestStructuralAlgebra:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_product_associativity(self, n):
        rng = random.Random(100 + n)
        for _ in range(10):
            a = rand_element(n, EMPTY, rng)
            b = rand_element(n, EMPTY, rng)
            c = rand_element(n, EMPTY, rng)
            assert (a * b) * c == a * (b * c)

    def test_generator_relations(self):
        n = 4
        for i in range(1, n + 1):
            gi = CliffordElement.generator(n, EMPTY, i)
            sq = gi * gi
            assert sq == CliffordElement.scalar(
                n, EMPTY, ParamPoly.const(EMPTY, -1)
            )
            for j in range(i + 1, n + 1):
                gj = CliffordElement.generator(n, EMPTY, j)
                anti = gi * gj + gj * gi
                assert anti == CliffordElement.zero(n, EMPTY)

    def test_grade(self):
        a = CliffordElement.generator(4, EMPTY, 1)
        b = CliffordElement.generator(4, EMPTY, 3)
        ab = a * b
        assert ab.grade(2) == ab
        assert ab.grade(0).terms == {}


class TestSpinorTrace:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_vanishes_on_every_nonscalar_blade(self, n):
        for mask in range(1, 1 << n):
            elem = CliffordElement(
                n, EMPTY, {(mask, ()): ParamPoly.one(EMPTY)}
            )
            assert spinor_trace(elem).is_zero()

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_scalar_trace_dimension(self, n):
        elem = CliffordElement.scalar(n, EMPTY, ParamPoly.const(EMPTY, 3))
        assert spinor_trace(elem) == ParamPoly.const(EMPTY, 3 * 2 ** (n // 2))

    def test_rejects_labelled_elements(self):
        al = Alphabet(["dimF"])
        elem = CliffordElement.scalar(4, al, ParamPoly.one(al)).with_label(("phi",))
        with pytest.raises(ValueError):
            spinor_trace(elem)

    def test_twisted_trace_label_rule(self):
        al = Alphabet(["dimF", "trPhi"])
        rule = {
            (): ParamPoly.var(al, "dimF"),
            ("phi",): ParamPoly.var(al, "trPhi"),
        }
        plain = CliffordElement.scalar(4, al, ParamPoly.const(al, 2))
        tagged = CliffordElement.scalar(4, al, ParamPoly.one(al)).with_label(
            ("phi",)
        )
        got = twisted_trace(plain + tagged, lambda lab: rule[lab])
        expected = (
            ParamPoly.var(al, "dimF") * ParamPoly.const(al, 8)
            + ParamPoly.var(al, "trPhi") * ParamPoly.const(al, 4)
        )
        assert got == expected


class TestTraceKernels:
    LABELS = [(), ("phi",), ("phi",), ("RF_1_2",), ("dPhi_1",)]

    def rand_labelled(self, n, alphabet, rng, blades):
        terms = {}
        for _ in range(blades):
            key = (rng.randrange(1 << n), rng.choice(self.LABELS))
            coeff = rand_poly(alphabet, rng, nterms=2, max_deg=1)
            terms[key] = terms.get(key, ParamPoly.zero(alphabet)) + coeff
        return CliffordElement(n, alphabet, terms)

    @staticmethod
    def numeric_symbol(elem, rng):
        """A numeric CliffXi: every term of elem at a random point of its
        parameters, times a random xi_n^m u^p (p < 0 gives poles on the
        sphere)."""
        point = {name: rand_gauss(rng) for name in elem.alphabet.names}
        return CliffXi(elem.dim, elem.alphabet, {
            key: XiExpr.monomial(
                elem.alphabet,
                m=rng.randint(0, 2),
                p=rng.randint(-2, 1),
                coeff=c.subs(point),
            )
            for key, c in elem.terms.items()
        })

    @staticmethod
    def grade0(x):
        """Grade-0 part of a value of any blade algebra."""
        return type(x)(x.dim, x.alphabet, {k: c for k, c in x.terms.items() if not k[0]})

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_mul_grade0_is_grade0_of_product(self, n):
        rng = random.Random(700 + n)
        al = Alphabet(["a", "b"])
        for _ in range(15):
            # dense on small n, so equal masks and cancellations occur
            a = self.rand_labelled(n, al, rng, rng.randint(1, 3 * n))
            b = self.rand_labelled(n, al, rng, rng.randint(1, 3 * n))
            assert a.mul_grade0(b) == (a * b).grade(0)
            assert a.mul_grade0(a) == (a * a).grade(0)
        # the same join serves the jet-ring and sphere-restricted symbols
        for _ in range(4):
            a = self.numeric_symbol(self.rand_labelled(n, al, rng, rng.randint(1, 2 * n)), rng)
            b = self.numeric_symbol(self.rand_labelled(n, al, rng, rng.randint(1, 2 * n)), rng)
            for x, y in ((a, b), (a, a)):
                assert x.mul_grade0(y) == self.grade0(x * y)
                fx, fy = SphereSymbol.from_cliffxi(x), SphereSymbol.from_cliffxi(y)
                assert fx.mul_grade0(fy) == self.grade0(fx * fy)

    def test_mixed_operands_raise(self):
        a = CliffordElement.generator(4, Alphabet(["a"]), 1)
        for other, error in (
            (CliffordElement.generator(4, Alphabet(["b"]), 1), AlphabetMismatch),
            (CliffordElement.generator(6, Alphabet(["a"]), 1), DimMismatch),
        ):
            with pytest.raises(error):
                a + other
            with pytest.raises(error):
                a * other
            with pytest.raises(error):
                a.mul_grade0(other)

    def test_other_dimension_is_unequal(self):
        # as over another alphabet: == answers, arithmetic raises
        al = Alphabet(["a"])
        a, b = CliffordElement.generator(4, al, 1), CliffordElement.generator(6, al, 1)
        assert not a == b and a != b
        assert a == CliffordElement.generator(4, al, 1)
        with pytest.raises(DimMismatch):
            a - b

    def test_mul_grade0_cancellation(self):
        g1 = CliffordElement.generator(4, EMPTY, 1)
        g2 = CliffordElement.generator(4, EMPTY, 2)
        a = g1 + g2
        b = g1 - g2  # (g1 + g2)(g1 - g2) = -1 + 1 + grade 2
        assert a.mul_grade0(b).terms == {}
        assert (a * b).grade(0).terms == {}

    @staticmethod
    def rand_matrix(size, rng, density):
        rows = []
        for _ in range(size):
            rows.append(
                {j: rand_gauss(rng) for j in range(size) if rng.random() < density}
            )
        return SpinorMatrix(size, rows)

    @pytest.mark.parametrize("size", [1, 2, 5, 8])
    def test_trace_product_is_trace_of_product(self, size):
        rng = random.Random(900 + size)
        for _ in range(20):
            a = self.rand_matrix(size, rng, rng.choice([0.3, 0.6, 1.0]))
            b = self.rand_matrix(size, rng, rng.choice([0.3, 0.6, 1.0]))
            assert a.trace_product(b) == (a * b).trace()
            assert b.trace_product(a) == (a * b).trace()

    def test_trace_product_on_represented_elements(self):
        rng = random.Random(17)
        for n in (2, 4, 6):
            a, b = rand_element(n, EMPTY, rng), rand_element(n, EMPTY, rng)
            assert represent(a).trace_product(represent(b)) == (
                constant_value(spinor_trace(a * b))
            )

    def test_trace_product_of_disjoint_supports_is_zero(self):
        a = SpinorMatrix(2, [{1: rand_gauss(random.Random(1))}, {}])
        assert a.trace_product(a) == GR_ZERO


class TestTorsionElement:
    def test_builds_grade_three(self):
        t = torsion_element(4, EMPTY, {(1, 2, 3): Fraction(2)})
        assert t.grade(3) == t
        assert t.coefficient(0b111) == ParamPoly.const(EMPTY, 2)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            torsion_element(4, EMPTY, {(1, 2, 5): Fraction(1)})

    def test_non_increasing_triple(self):
        with pytest.raises(NonIncreasingTriple):
            torsion_element(4, EMPTY, {(2, 1, 3): Fraction(1)})


class TestMatrixOracle:
    def test_rep_dimensions(self):
        for n in (2, 4, 6, 8):
            gens = clifford_matrix_rep(n)
            assert len(gens) == n
            assert gens[0].size == 2 ** (n // 2)

    def test_rep_rejects_odd_and_oversized(self):
        with pytest.raises(UnsupportedDimension):
            clifford_matrix_rep(3)
        with pytest.raises(UnsupportedDimension):
            clifford_matrix_rep(14)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_homomorphism_sample(self, n):
        rng = random.Random(5 + n)
        for _ in range(20):
            a = rand_element(n, EMPTY, rng)
            b = rand_element(n, EMPTY, rng)
            assert represent(a * b) == represent(a) * represent(b)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_trace_agreement_sample(self, n):
        rng = random.Random(50 + n)
        for _ in range(20):
            a = rand_element(n, EMPTY, rng)
            tr = spinor_trace(a)
            assert tr.is_constant()
            assert represent(a).trace() == constant_value(tr)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_generator_matrices_satisfy_clifford_relations(self, n):
        gens = clifford_matrix_rep(n)
        size = 2 ** (n // 2)
        minus = SpinorMatrix(size, [{i: -GR_ONE} for i in range(size)])
        for i, gi in enumerate(gens):
            assert gi * gi == minus
            for gj in gens[i + 1:]:
                assert gi * gj == minus * (gj * gi)

    def test_blade_matrix_consistency(self):
        n = 4
        g1, g2 = clifford_matrix_rep(n)[:2]
        assert blade_matrix(n, 0b11) == g1 * g2

    def test_callers_cannot_corrupt_the_generator_cache(self):
        gens = clifford_matrix_rep(4)
        with pytest.raises(AttributeError):
            gens.pop()
        gens[0].rows[0].clear()
        assert len(clifford_matrix_rep(4)) == 4
        assert clifford_matrix_rep(4)[0].rows[0]

    def test_callers_cannot_corrupt_the_blade_cache(self):
        a = CliffordElement.generator(4, EMPTY, 1) * CliffordElement.generator(4, EMPTY, 2)
        before = represent(a)
        blade_matrix(4, 0b11).rows[0].clear()
        assert blade_matrix(4, 0b11).rows[0]
        assert represent(a) == before


class TestVerifyTraceLemmas:
    def test_record_shape_and_oracle_status(self):
        recs = verify_trace_lemmas(4, 3, seed=1)
        idents = [r["identity"] for r in recs]
        assert idents == [
            "trace_pair_vector",
            "trace_torsion_square",
            "contraction_joined_first",
            "contraction_joined_second",
            "contraction_joined_third",
            "deriv_contraction_first",
            "deriv_contraction_second",
            "deriv_contraction_third",
        ]
        for r in recs:
            assert r["status"] == "pass", r

    def test_printed_sign_discrepancy_reported(self):
        recs = {r["identity"]: r for r in verify_trace_lemmas(4, 3, seed=1)}
        assert recs["trace_torsion_square"]["printed_status"] == "differs"
        assert recs["contraction_joined_first"]["printed_status"] == "differs"
        assert recs["trace_pair_vector"]["printed_status"] == "pass"
        assert "printed" in recs["trace_torsion_square"]["counterexample"]

    def test_deriv_block_can_be_skipped(self):
        recs = verify_trace_lemmas(4, 2, seed=0, deriv_trials=0)
        assert len(recs) == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials": -1},
            {"trials": True},
            {"trials": 2.0},
            {"trials": "3"},
            {"trials": 1, "deriv_trials": -3},
            {"trials": 1, "deriv_trials": False},
            {"trials": 1, "deriv_trials": 1.0},
        ],
    )
    def test_rejects_bad_trial_counts(self, kwargs):
        with pytest.raises(ValidationError):
            verify_trace_lemmas(4, **kwargs)

    # sha256 of the JSON of the records over seeds 0, 1, 3, 7 and the
    # (trials, deriv_trials) grid below, per dimension
    GRID = [(0, None), (1, None), (3, None), (2, 0), (0, 2), (3, 1)]
    GRID_SHA256 = {
        2: "2aad4afd8eec1da4f4c6ba22c8f0a44ee68bb831fcc974fbd09ee75f66a50142",
        4: "ec3967aaa64904aab83a76d7f33a6348aa5a2fa4b729ade8f051da23357559a8",
        6: "2da97de7c447bcdf58400dea15111d47f7af414f6a908a49c3df9b9f6bb9ab1d",
        8: "080001e89b36bc8633ffeebed4fb0f3cd4ec5a21e385b99ecefc3e6831b8211f",
    }

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_records_are_pinned(self, n):
        recs = [
            verify_trace_lemmas(n, trials, seed=seed, deriv_trials=deriv)
            for seed in (0, 1, 3, 7)
            for trials, deriv in self.GRID
        ]
        digest = hashlib.sha256(json.dumps(recs, sort_keys=True).encode()).hexdigest()
        assert digest == self.GRID_SHA256[n]


def matrix_sides(n, trials, deriv_trials, rng):
    """The audit's sides trial by trial, each left side a trace of matrix
    products formed in that trial: the per-trial path that the tabulated
    oracle._sides replaces, kept here as its oracle.  Same draws, same
    yields."""
    size = 2 ** (n // 2)
    trid = GaussRational(size)
    triples = oracle._triples(n)

    def draw(rng):
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    def blade(*idx):
        return oracle._index_blade(n, idx)

    def combo(pairs):
        """Matrix of sum v * blade(*idx) over (idx, v) pairs."""
        return oracle._combination(
            size, [(GaussRational(v), blade(*idx)) for idx, v in pairs if v]
        )

    def vector(values):
        return [((i,), v) for i, v in enumerate(values, 1)]

    def joined(T, pos, first, second):
        groups = {}
        for t, v in T.items():
            groups.setdefault(t[pos], []).append(((t[first], t[second]), v))
        return {m: combo(pairs) for m, pairs in groups.items()}

    for _ in range(trials):
        T = {t: draw(rng) for t in triples}
        X = [draw(rng) for _ in range(n)]
        Y = [draw(rng) for _ in range(n)]
        gyx = GaussRational(sum(y * x for y, x in zip(Y, X))) * trid
        t2 = GaussRational(sum(v * v for v in T.values())) * trid
        m_t = combo(T.items())
        lhs = combo(vector(X)).trace_product(m_t + combo(vector(Y)))
        yield "trace_pair_vector", lhs, -gyx, lhs, -gyx
        lhs = m_t.trace_product(m_t)
        yield "trace_torsion_square", lhs, t2, lhs, -t2
        a_mats = joined(T, 0, 1, 2)
        for word, b_mats, rhs, printed in (
            ("first", a_mats, -t2, t2),
            ("second", joined(T, 1, 0, 2), GR_ZERO, GR_ZERO),
            ("third", joined(T, 2, 0, 1), GR_ZERO, GR_ZERO),
        ):
            lhs = GR_ZERO
            for m, a_m in a_mats.items():
                if m in b_mats:
                    lhs = lhs + a_m.trace_product(b_mats[m])
            yield f"contraction_joined_{word}", lhs, rhs, lhs, printed

    for _ in range(deriv_trials):
        T = {t: draw(rng) for t in triples}
        w = [[[draw(rng) for _ in range(n + 1)] for _ in range(n + 1)] for _ in range(n + 1)]
        vmats = [None] + [
            [None] + [combo(vector(w[j][x][1:])) for j in range(1, n + 1)]
            for x in range(1, n + 1)
        ]
        for ident, pos, fixed_groups, pattern, printed in oracle._DERIV_SLOTS:
            lhs, rhs = GR_ZERO, Fraction(0)
            for t, v in T.items():
                x = t[pos]
                for j in range(1, n + 1):
                    groups = fixed_groups(*t, j)
                    left = blade(*groups[0])
                    for g in groups[1:]:
                        left = left * blade(*g)
                    lhs = lhs + GaussRational(v) * left.trace_product(vmats[x][j])
                    for l in range(1, n + 1):
                        rhs += v * w[j][x][l] * oracle._delta4(*pattern(*t, j, l))
            yield ident, lhs, GaussRational(rhs) * trid, rhs, printed(T, w, n)


class TestTabulatedAudit:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_sides_equal_the_per_trial_matrix_path(self, n):
        for seed in (0, 2, 9):
            tabulated = list(oracle._sides(n, 2, 2, random.Random(seed)))
            per_trial = list(matrix_sides(n, 2, 2, random.Random(seed)))
            assert len(tabulated) == len(per_trial) == 2 * 5 + 2 * 3
            for got, want in zip(tabulated, per_trial):
                assert got == want, (seed, got[0])

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matrix_path_holds_every_identity(self, n):
        for ident, lhs, rhs, _, _ in matrix_sides(n, 1, 1, random.Random(n)):
            assert lhs == rhs, ident

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_joined_entries_are_trid_delta4(self, n):
        joined = oracle._algebraic_tables(n)[2]
        assert [mismatch for _, mismatch in joined.values()] == [None] * 3
        # the joined-first terms are the diagonal Tr((c_b c_c)^2) = -tr(id)
        terms, _ = joined["first"]
        assert len(terms) == len(oracle._triples(n))
        assert {e for _, _, e in terms} == {(-(2 ** (n // 2)), 0)}

    def test_budget_rejects_before_any_work(self):
        before = oracle._deriv_tables.cache_info()
        with pytest.raises(ValidationError, match="budget of 5000 trials"):
            verify_trace_lemmas(12, 5001)
        with pytest.raises(ValidationError, match="deriv_trials"):
            verify_trace_lemmas(12, 0, deriv_trials=5001)
        with pytest.raises(ValidationError, match="budget of 87880 trials"):
            verify_trace_lemmas(4, 87881, deriv_trials=0)
        assert oracle._deriv_tables.cache_info() == before
