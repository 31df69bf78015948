"""Acceptance gate: the twelve end-to-end criteria for this engine.

Each test is one criterion.  Engine-vs-printed disagreements are acceptance
as discrepancy records, never silent adoption of either side, so several
criteria assert both an exact oracle identity and the presence of the
corresponding audit records.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ncresidue.boundary import (
    CASE_IDS,
    boundary_case,
    bracket_table,
    extrinsic_K,
    wres_with_boundary,
)
from ncresidue.clifford import (
    CliffordElement,
    represent,
    spinor_trace,
    verify_trace_lemmas,
)
from ncresidue.config import SessionConfig
from ncresidue.exact import GR_I, Alphabet, GaussRational, ParamPoly
from ncresidue.geometry import (
    GeometricBundle,
    interior_wres,
    lichnerowicz_normal_form,
    standard_alphabet,
    trace_E_density,
    trace_density_report,
)
from ncresidue.halfplane import HalfPlaneRational, deriv_at_i
from ncresidue.oracle import constant_value, eval_exact
from ncresidue.report import emit, parse_report_json, run_session
from ncresidue.symbols import (
    CliffXi,
    XiExpr,
    compose_symbols,
    invert_symbol,
    laplace_symbol,
)
from conftest import (
    assert_integral_matches_quadrature,
    rand_assignment,
    rand_fraction,
    rand_gauss,
)
from test_clifford import EMPTY, rand_element
from test_symbols import subs_expansion


def random_bundle(n, rng):
    """Fully numeric geometric data with random small rationals."""
    triples = {}
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            for c in range(b + 1, n + 1):
                triples[(a, b, c)] = rand_fraction(rng, span=3)
    return GeometricBundle(
        n,
        torsion=triples,
        X=[rand_fraction(rng, span=3) for _ in range(n)],
        Y=[rand_fraction(rng, span=3) for _ in range(n)],
        s=rand_fraction(rng),
        divX=rand_fraction(rng),
        divY=rand_fraction(rng),
        dimF=rand_fraction(rng),
        trPhi=rand_fraction(rng),
        trPhi2=rand_fraction(rng),
        hprime0=rand_fraction(rng),
    )


class TestCriterion01CliffordOracleEquivalence:
    def test_products_and_traces_match_matrix_oracle(self):
        start = time.monotonic()
        for n in (2, 4, 6, 8):
            rng = random.Random(1000 + n)
            for _ in range(200):
                a = rand_element(n, EMPTY, rng)
                b = rand_element(n, EMPTY, rng)
                assert represent(a * b) == represent(a) * represent(b)
                tr = spinor_trace(a)
                assert tr.is_constant()
                assert represent(a).trace() == constant_value(tr)
        assert time.monotonic() - start < 10.0


@pytest.fixture(scope="module")
def records():
    out = {}
    for n in (4, 6):
        out[n] = {r["identity"]: r for r in verify_trace_lemmas(n, 50, seed=3)}
    out[8] = {
        r["identity"]: r
        for r in verify_trace_lemmas(8, 50, seed=3, deriv_trials=0)
    }
    return out


class TestCriterion02TraceIdentities:
    def test_identities_hold_exactly(self, records):
        for n in (4, 6, 8):
            for ident in (
                "trace_pair_vector",
                "trace_torsion_square",
                "contraction_joined_first",
                "contraction_joined_second",
                "contraction_joined_third",
            ):
                rec = records[n][ident]
                assert rec["trials"] >= 50
                assert rec["status"] == "pass", rec

    def test_mixed_contractions_vanish(self, records):
        for n in (4, 6, 8):
            assert records[n]["contraction_joined_second"]["status"] == "pass"
            assert records[n]["contraction_joined_third"]["status"] == "pass"

    def test_printed_sign_discrepancies_recorded(self, records):
        # the printed closed forms for the torsion square and the
        # joined-first contraction carry the opposite sign; reported as data
        for n in (4, 6, 8):
            assert records[n]["trace_torsion_square"]["printed_status"] == "differs"
            assert (
                records[n]["contraction_joined_first"]["printed_status"]
                == "differs"
            )
            assert "printed" in records[n]["trace_torsion_square"]["counterexample"]


class TestCriterion03DerivativeContractions:
    def test_matrix_level_contractions_with_free_scalars(self):
        for n in (4, 6):
            recs = {
                r["identity"]: r for r in verify_trace_lemmas(n, 50, seed=5)
            }
            for ident in (
                "deriv_contraction_first",
                "deriv_contraction_second",
                "deriv_contraction_third",
            ):
                assert recs[ident]["status"] == "pass", recs[ident]


class TestCriterion04PiPlusPipeline:
    def test_projected_normal_derivative_of_leading_inverse(self):
        # pi+ of the normal-jet of the order -2 inverse component:
        # hp0 (i xi + 2) / (4 (xi - i)^2)
        from ncresidue.boundary import SphereSymbol

        for nbar in (2, 4):
            n = nbar + 2
            al = standard_alphabet(n)
            gdn = ParamPoly.var(al, "hp0") * ParamPoly.const(
                al, Fraction(nbar + 1, 2)
            )
            op = laplace_symbol(n, al, gdn=gdn)
            par = invert_symbol(op, 1)
            got = SphereSymbol.from_cliffxi(par[-2].d_xn()).pi_plus().coefficient(0)
            hp0 = ParamPoly.var(al, "hp0")
            expected = HalfPlaneRational(
                al,
                [
                    hp0 * ParamPoly.const(al, Fraction(1, 2)),
                    hp0 * ParamPoly.const(al, GaussRational(0, Fraction(1, 4))),
                ],
                2,
                0,
            )
            assert got == expected

    def test_xi_derivatives_of_projected_inverse(self):
        al = Alphabet(["hp0"])
        proj = HalfPlaneRational.from_u_power(al, 0, -1).pi_plus()
        second = HalfPlaneRational(
            al, [ParamPoly.const(al, GaussRational(0, -1))], 3, 0
        )
        first = HalfPlaneRational(
            al, [ParamPoly.const(al, GaussRational(0, Fraction(1, 2)))], 2, 0
        )
        assert proj.deriv(2) == second
        assert proj.deriv(1) == first


class TestCriterion05QuadratureOracle:
    def test_random_suite_and_case_integrands(self):
        start = time.monotonic()
        rng = random.Random(77)
        al = Alphabet(["a", "b"])
        checked = 0
        for _ in range(50):
            f = HalfPlaneRational.zero(al)
            for _ in range(rng.randint(1, 3)):
                p = rng.randint(-4, -1)
                m = rng.randint(0, max(0, -2 * p - 2))
                f = f + HalfPlaneRational.from_u_power(al, m, p).scale(
                    rand_gauss(rng, span=3)
                )
            assert_integral_matches_quadrature(f, rand_assignment(al, rng))
            checked += 1
        assert checked == 50

        for nbar in (2, 4, 6):
            alphabet = standard_alphabet(nbar + 2)
            assignment = rand_assignment(alphabet, rng, span=3)
            for cid in CASE_IDS:
                res = boundary_case(cid, nbar)
                integrands = [res.integrand]
                if res.parts:
                    integrands += [p["integrand"] for p in res.parts.values()]
                for f in integrands:
                    if f.is_zero():
                        continue
                    assert_integral_matches_quadrature(f, assignment)
        assert time.monotonic() - start < 60.0


class TestCriterion06CaseAIVanishes:
    @pytest.mark.parametrize("nbar", [2, 4, 6, 8, 10])
    def test_zero(self, nbar):
        res = boundary_case("aI", nbar)
        assert res.value.is_zero()
        assert res.integrand.is_zero()


class TestCriterion07SymbolClosure:
    @pytest.mark.parametrize("n", [4, 6])
    def test_depth_four_inverse_closes_through_minus_two(self, n):
        rng = random.Random(300 + n)
        al = standard_alphabet(n)
        geo = random_bundle(n, rng)
        nf = lichnerowicz_normal_form(geo)
        op = laplace_symbol(n, al, b_term=nf.B)
        num = subs_expansion(op, rand_assignment(al, rng, span=3))
        # orders -3 and -4 involve q_-5 and q_-6, which the check through -2
        # does not reach
        comp = compose_symbols(num, invert_symbol(num, 4), -4)
        assert comp[0] == CliffXi.scalar(n, XiExpr.const(al, 1))
        for order in range(-1, -5, -1):
            assert comp[order].is_zero()


class TestCriterion08InteriorConsistency:
    @pytest.mark.parametrize("n", [4, 6])
    def test_printed_s_coefficient(self, n):
        geo = GeometricBundle(n)
        printed, _ = interior_wres(geo, mode="printed")
        key = (("dimF", 1), ("s", 1))
        assert printed.coefficient(key) == GaussRational(Fraction(-2 ** n, 12))

    @pytest.mark.parametrize("n", [4, 6])
    def test_oracle_assembly(self, n):
        geo = GeometricBundle(n)
        al = geo.alphabet
        oracle, _ = interior_wres(geo, mode="oracle")
        tre = trace_E_density(geo, mode="oracle")
        assembled = (
            ParamPoly.var(al, "s")
            * ParamPoly.var(al, "dimF")
            * ParamPoly.const(al, Fraction(2 ** (n // 2), 6))
            + tre
        )
        assert oracle == assembled
        # the endomorphism trace carries the -1/4 s tr(id) term
        key = (("dimF", 1), ("s", 1))
        assert tre.coefficient(key) == GaussRational(Fraction(-2 ** (n // 2), 4))

    def test_prefactor_discrepancy_recorded(self):
        recs = {r["term"]: r for r in trace_density_report(4)}
        assert recs["identity_trace_prefactor"]["agree"] is False


class TestCriterion09ExtrinsicCurvature:
    @pytest.mark.parametrize("nbar", [2, 4, 6])
    def test_collar_value(self, nbar):
        al = standard_alphabet(nbar + 2)
        expected = ParamPoly.var(al, "hp0") * ParamPoly.const(
            al, Fraction(-(nbar + 1), 2)
        )
        assert extrinsic_K(nbar) == expected


class TestCriterion10DerivativeFormulaAudit:
    def test_two_path_agreement(self):
        alphabet = Alphabet([])
        one = ParamPoly.one(alphabet)
        zero = ParamPoly.zero(alphabet)
        for m in range(4):
            num = [zero] * m + [one]
            for p in range(9):
                f = HalfPlaneRational(alphabet, num, 0, p)
                for k in range(10):
                    direct = constant_value(eval_exact(f.deriv(k), GR_I))
                    assert deriv_at_i(m, p, k) == direct, (m, p, k)

    def test_bracket_table_reference_rows(self):
        rows = {r["term"]: r for r in bracket_table()}
        assert rows["bracket_m1_p1"]["engine"] == "1/4"
        assert rows["bracket_m1_p2"]["engine"] == "3/8"
        for row in rows.values():
            assert "printed" in row and "engine" in row


class TestCriterion11BoundaryAssembly:
    @pytest.mark.parametrize("nbar", [2, 4, 6])
    def test_finite_exact_and_sum_of_cases(self, nbar):
        w = wres_with_boundary(nbar)
        total = None
        for cid in CASE_IDS:
            v = w["boundary"]["cases"][cid].value
            total = v if total is None else total + v
        assert total == w["boundary"]["value"]
        # interior part is a finite exact density with its pi prefactor
        assert w["interior"]["density"].alphabet is not None
        assert isinstance(w["interior"]["prefactor"], Fraction)

    @pytest.mark.parametrize("nbar", [4, 6])
    def test_discrepancy_records_emitted(self, nbar):
        w = wres_with_boundary(nbar)
        recs = {c["term"]: c for c in w["comparisons"]}
        assert recs["wres_K_coefficient"]["agree"] is False
        assert recs["phi_drift_part"]["agree"] is False

    def test_domain_flag_at_base_dimension(self):
        w = wres_with_boundary(2)
        recs = {c["term"]: c for c in w["comparisons"]}
        assert "out of domain" in recs["phi_drift_part"]["printed"]
        assert "factorial" in recs["phi_drift_part"]["printed"]


class TestCriterion12CliDeterminism:
    def test_byte_identical_runs(self):
        argv = [
            sys.executable,
            "-m",
            "ncresidue.cli",
            "--dim",
            "4",
            "--format",
            "json",
            "--seed",
            "11",
            "--verify-lemmas",
            "2",
        ]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout

    def test_json_roundtrip_lossless(self):
        rep = run_session(SessionConfig(nbar=4, verify_lemmas=2, seed=11))
        text = emit(rep, "json")
        again = parse_report_json(text)
        assert again == rep
        assert emit(again, "json") == text
        json.loads(text)
