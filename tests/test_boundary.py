"""Boundary residue cases, their assembly, and printed-form audits."""

import subprocess
import sys
from collections.abc import Mapping
from fractions import Fraction

import pytest

from ncresidue import SessionConfig, boundary, emit, geometry, run_session
from ncresidue.boundary import (
    CASE_IDS,
    SphereSymbol,
    boundary_case,
    bracket_table,
    enumerate_cases,
    extrinsic_K,
    total_boundary_phi,
    wres_with_boundary,
)
from ncresidue.errors import (
    OddBarDimension,
    UnsupportedDimension,
    ValidationError,
)
from ncresidue.exact import GaussRational, ParamPoly
from ncresidue.geometry import GeometricBundle, standard_alphabet, standard_label_trace
from ncresidue.halfplane import HalfPlaneRational
from ncresidue.symbols import compose_symbols


class TestCaseEnumeration:
    def test_exactly_five_cases(self):
        cases = enumerate_cases(4)
        assert set(cases) == set(CASE_IDS)

    def test_case_data(self):
        cases = enumerate_cases(4)
        assert cases["aI"]["alpha"] == 1
        assert cases["aII"]["j"] == 1
        assert cases["aIII"]["k"] == 1
        assert cases["b"]["l"] == 1 - 4
        assert cases["c"]["r"] == -3
        # prefactors (-i)^{alpha+j+k+1} / (alpha! (j+k+1)!)
        assert cases["aII"]["prefactor"] == GaussRational(Fraction(-1, 2))
        assert cases["aIII"]["prefactor"] == GaussRational(Fraction(-1, 2))
        assert cases["b"]["prefactor"] == GaussRational(0, -1)
        assert cases["c"]["prefactor"] == GaussRational(0, -1)

    def test_dimension_validation(self):
        with pytest.raises(OddBarDimension):
            enumerate_cases(3)
        with pytest.raises(UnsupportedDimension):
            enumerate_cases(12)

    @pytest.mark.parametrize("nbar", [True, 4.0, "4"])
    def test_non_integer_dimension(self, nbar):
        with pytest.raises(ValidationError):
            total_boundary_phi(nbar)


class TestIndividualCases:
    @pytest.mark.parametrize("nbar", [2, 4, 6, 8, 10])
    def test_case_aI_vanishes(self, nbar):
        res = boundary_case("aI", nbar)
        assert res.value.is_zero()
        assert res.integrand.is_zero()

    @pytest.mark.parametrize("nbar", [2, 4])
    def test_aII_aIII_cancel(self, nbar):
        a2 = boundary_case("aII", nbar)
        a3 = boundary_case("aIII", nbar)
        assert (a2.value + a3.value).is_zero()

    @pytest.mark.parametrize("nbar", [2, 4])
    def test_b_c_cancel(self, nbar):
        b = boundary_case("b", nbar)
        c = boundary_case("c", nbar)
        assert (b.value + c.value).is_zero()

    def test_four_case_cancellation_at_six(self):
        # beyond nbar = 4 the cancellation happens only across all four
        # nonzero cases, not pairwise
        total = None
        for cid in ("aII", "aIII", "b", "c"):
            v = boundary_case(cid, 6).value
            total = v if total is None else total + v
        assert total.is_zero()
        assert not (
            boundary_case("b", 6).value + boundary_case("c", 6).value
        ).is_zero()

    def test_case_b_reference_value(self):
        al = standard_alphabet(6)
        b = boundary_case("b", 4)
        expected = (
            ParamPoly.var(al, "VolS") * ParamPoly.var(al, "X_6")
            * ParamPoly.var(al, "dimF") * ParamPoly.const(al, Fraction(-1, 4))
            + ParamPoly.var(al, "VolS") * ParamPoly.var(al, "Y_6")
            * ParamPoly.var(al, "trPhi")
            - ParamPoly.var(al, "VolS") * ParamPoly.var(al, "dimF")
            * ParamPoly.var(al, "hp0") * ParamPoly.const(al, Fraction(15, 8))
        )
        assert b.value == expected

    def test_by_parts_consistency_records(self):
        a3 = boundary_case("aIII", 4)
        rec = {c["term"]: c for c in a3.comparisons}["case_aIII_by_parts"]
        assert rec["agree"] is True
        b = boundary_case("b", 4)
        rec = {c["term"]: c for c in b.comparisons}["case_b_by_parts"]
        assert rec["agree"] is True

    @pytest.mark.parametrize("case_id", [["b"], None, "d"])
    def test_unknown_case_id_rejected(self, case_id):
        with pytest.raises(ValidationError):
            boundary_case(case_id, 4)

    def test_second_form_policy(self, monkeypatch):
        # a wrong derivative on the main form: aIII refuses to return, while
        # b returns and records the disagreement
        deriv = SphereSymbol.deriv

        def doubled_at(order):
            def wrong(sym, k=1):
                got = deriv(sym, k)
                return got + got if k == order else got
            return wrong

        monkeypatch.setattr(SphereSymbol, "deriv", doubled_at(2))
        with pytest.raises(ValidationError):
            boundary._CASE_FN["aIII"](4)
        monkeypatch.setattr(SphereSymbol, "deriv", doubled_at(1))
        b = boundary._CASE_FN["b"](4)
        rec = {c["term"]: c for c in b.comparisons}["case_b_by_parts"]
        assert rec["agree"] is False

    def test_geo_substitution_validates_dimension(self):
        geo = GeometricBundle(4)
        with pytest.raises(ValidationError):
            boundary_case("b", 4, geo)  # needs full dimension 6

    def test_derivation_trace_present(self):
        res = boundary_case("c", 4)
        assert res.derivation_trace
        assert all({"id", "op", "value"} <= set(step) for step in
                   res.derivation_trace)

    def test_cached_cases_do_not_leak_mutation(self):
        def plain(res):
            return (res.value, res.printed, [dict(c) for c in res.comparisons],
                    [dict(step) for step in res.derivation_trace],
                    {k: dict(v) for k, v in res.parts.items()})

        count = len(total_boundary_phi(2)["comparisons"])
        res = boundary_case("b", 2)
        before = plain(res)
        with pytest.raises(AttributeError):
            res.comparisons.append({"term": "injected"})
        with pytest.raises(TypeError):
            res.comparisons[0]["agree"] = "changed"
        with pytest.raises(TypeError):
            res.comparisons[0] = {"term": "injected"}
        with pytest.raises(TypeError):
            res.parts["A1"]["value"] = ParamPoly.zero(res.value.alphabet)
        with pytest.raises(AttributeError):
            res.derivation_trace.clear()
        with pytest.raises(AttributeError):
            res.parts.clear()
        with pytest.raises(AttributeError):
            res.value = ParamPoly.zero(res.value.alphabet)
        with pytest.raises(AttributeError):
            total_boundary_phi(2)["cases"]["c"].comparisons.clear()
        phi = total_boundary_phi(2)
        assert len(phi["comparisons"]) == count == 13
        assert all(c["term"] != "injected" for c in phi["comparisons"])
        assert plain(boundary_case("b", 2)) == before
        assert phi["cases"]["c"].comparisons

    @pytest.mark.parametrize("nbar", [2, 4])
    def test_cases_are_shared(self, nbar):
        cases = total_boundary_phi(nbar)["cases"]
        for cid in CASE_IDS:
            assert boundary_case(cid, nbar) is cases[cid]

    def test_geo_result_substitutes_values_and_shares_records(self):
        geo = GeometricBundle(6, X=[1, 2, 3, 4, 5, 6], Y=[0, 0, 0, 0, 1, Fraction(1, 2)],
                              s=2, dimF=3, trPhi=1, trPhi2=2, hprime0=Fraction(1, 3))
        for cid in ("b", "c"):
            res, sub = boundary_case(cid, 4), boundary_case(cid, 4, geo)
            assert sub.value == geo.subs(res.value)
            assert sub.printed == geo.subs(res.printed)
            assert sub.value != res.value and sub.printed != res.printed
            assert list(sub.parts) == list(res.parts)
            for name, part in sub.parts.items():
                assert part["value"] == geo.subs(res.parts[name]["value"])
                assert part["integrand"] is res.parts[name]["integrand"]
            with pytest.raises(TypeError):
                sub.parts[name]["value"] = res.value
            assert sub.comparisons is res.comparisons
            assert sub.derivation_trace is res.derivation_trace
            assert sub.integrand is res.integrand
        assert boundary_case("aII", 4, geo).parts is None

    @pytest.mark.parametrize(
        "call",
        [total_boundary_phi, wres_with_boundary,
         lambda nbar, geo: boundary_case("b", nbar, geo)],
        ids=["total_boundary_phi", "wres_with_boundary", "boundary_case"],
    )
    def test_geo_that_is_not_a_bundle_rejected(self, call):
        # each used to raise AttributeError on geo.n
        for geo in ("x", {"s": 1}, 6):
            with pytest.raises(ValidationError, match="expected a GeometricBundle") as exc:
                call(4, geo)
            assert exc.value.field == "geo"

    @pytest.mark.parametrize("call", [total_boundary_phi, wres_with_boundary])
    def test_bundle_of_another_dimension_rejected(self, call):
        with pytest.raises(ValidationError, match="bundle dimension 8 != 6"):
            call(4, GeometricBundle(8, s=2))
        with pytest.raises(ValidationError, match="bundle dimension 4 != 6"):
            call(4, GeometricBundle(4))


_BY_PARTS_AIII = "two integration-by-parts forms"
_BY_PARTS_B = "derivative moved between factors"
_COLLAR = (
    "printed form implies a different collar scalar than the value used "
    "consistently by the engine"
)
_DRIFT_C = (
    "printed value repeats the case-b drift part with the same sign; the "
    "engine derivative flips it"
)


class TestCaseRecordPins:
    """Every case record, pinned by term: (printed, engine, agree, note)."""

    RECORDS = {
        2: {
            "case_aI_total": ("0", "0", True, None),
            "case_aII_total": ("0", "0", True, None),
            "case_aIII_total": ("0", "0", True, None),
            "case_aIII_by_parts": ("0", "0", True, _BY_PARTS_AIII),
            "case_b_total": ("-1/4*VolS*hp0", "0", False, None),
            "case_b_by_parts": ("0", "0", True, _BY_PARTS_B),
            "case_b_drift_part": ("0", "0", True, None),
            "case_c_total": ("0", "0", True, None),
            "case_c_projected_normal_part": (
                "[(1/2*i*hp0) + (-1/4*hp0)*xi^1] / (xi-i)^3",
                "[(3/4*i*hp0) + (-1/2*hp0)*xi^1] / (xi-i)^3", False, _COLLAR),
            "case_c_drift_part": ("0", "0", True, _DRIFT_C),
        },
        4: {
            "case_aI_total": ("0", "0", True, None),
            "case_aII_total": ("-5/8*VolS*hp0", "-5/8*VolS*hp0", True, None),
            "case_aIII_total": ("5/8*VolS*hp0", "5/8*VolS*hp0", True, None),
            "case_aIII_by_parts": (
                "5/8*VolS*dimF*hp0", "5/8*VolS*dimF*hp0", True, _BY_PARTS_AIII),
            "case_b_total": (
                "-1/8*VolS*X_6 + 1/4*VolS*Y_6 - 35/16*VolS*hp0",
                "-1/4*VolS*X_6 + VolS*Y_6 - 15/8*VolS*hp0", False, None),
            "case_b_by_parts": (
                "-1/4*VolS*X_6*dimF + VolS*Y_6*trPhi - 15/8*VolS*dimF*hp0",
                "-1/4*VolS*X_6*dimF + VolS*Y_6*trPhi - 15/8*VolS*dimF*hp0",
                True, _BY_PARTS_B),
            "case_b_drift_part": (
                "-1/8*VolS*X_6 + 1/4*VolS*Y_6", "-1/4*VolS*X_6 + VolS*Y_6", False, None),
            "case_c_total": (
                "-1/8*VolS*X_6 + 1/4*VolS*Y_6 + 11/8*VolS*hp0",
                "1/4*VolS*X_6 - VolS*Y_6 + 15/8*VolS*hp0", False, None),
            "case_c_projected_normal_part": (
                "[(3/4*i*hp0) + (-1/2*hp0)*xi^1] / (xi-i)^3",
                "[(i*hp0) + (-3/4*hp0)*xi^1] / (xi-i)^3", False, _COLLAR),
            "case_c_drift_part": (
                "-1/8*VolS*X_6 + 1/4*VolS*Y_6", "1/4*VolS*X_6 - VolS*Y_6", False,
                _DRIFT_C),
        },
    }

    @pytest.mark.parametrize("nbar", [2, 4])
    def test_case_records(self, nbar):
        got = {
            rec["term"]: (rec["printed"], rec["engine"], rec["agree"], rec.get("note"))
            for cid in CASE_IDS
            for rec in boundary_case(cid, nbar).comparisons
        }
        assert list(got) == list(self.RECORDS[nbar])
        for term, want in self.RECORDS[nbar].items():
            assert got[term] == want, term


class TestGradeZeroJoin:
    @pytest.mark.parametrize("nbar", [2, 4, 6])
    def test_every_case_product_matches_the_full_product(self, monkeypatch, nbar):
        # record the operands of every traced product the cases form, with
        # the full blade product as the oracle of the grade-0 join
        join = SphereSymbol.mul_grade0
        pairs = []

        def recording(f, g):
            pairs.append((f, g))
            return join(f, g)

        monkeypatch.setattr(SphereSymbol, "mul_grade0", recording)
        for cid in CASE_IDS:
            boundary._CASE_FN[cid](nbar)
        assert len(pairs) == 10  # aII 1, aIII 2, b 4, c 3
        rule = standard_label_trace(standard_alphabet(nbar + 2))
        for f, g in pairs:
            assert join(f, g).trace(rule) == (f * g).trace(rule)


class TestPowerSymbolOracle:
    @pytest.mark.parametrize("nbar", [4, 6, 8, 10])
    def test_power_symbol_is_a_composed_parametrix(self, nbar):
        # the order 2 - nbar power is the (h - 1)-fold product of the
        # parametrix (Seeley 1967); each step keeps only its top two orders
        _n, _al, _op, par, pw = boundary._pipeline(nbar)
        acc = par
        for i in range(nbar // 2 - 2):
            acc = compose_symbols(acc, par, -2 * (i + 2) - 1)
        assert acc[2 - nbar] == pw[2 - nbar]
        assert acc[1 - nbar] == pw[1 - nbar]


class TestAssembly:
    @pytest.mark.parametrize("nbar", [2, 4, 6])
    def test_total_phi_vanishes_with_structure(self, nbar):
        phi = total_boundary_phi(nbar)
        assert phi["value"].is_zero()
        assert all(phi["structure"].values())

    @pytest.mark.parametrize("nbar", [2, 4, 6])
    def test_boundary_equals_sum_of_cases(self, nbar):
        w = wres_with_boundary(nbar)
        total = None
        for cid in CASE_IDS:
            v = w["boundary"]["cases"][cid].value
            total = v if total is None else total + v
        assert total == w["boundary"]["value"]

    @pytest.mark.parametrize("nbar,coeff", [(2, -3), (4, -5), (6, -7)])
    def test_extrinsic_K(self, nbar, coeff):
        al = standard_alphabet(nbar + 2)
        expected = ParamPoly.var(al, "hp0") * ParamPoly.const(
            al, Fraction(coeff, 2)
        )
        assert extrinsic_K(nbar) == expected

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            wres_with_boundary(2, None, "bogus")

    @pytest.mark.parametrize("nbar", [4, 10])
    def test_unknown_mode_refused_before_the_boundary_memo(self, nbar):
        # building the boundary memo first costs 81 ms at nbar 10 in a cold
        # process, for a call that is refused anyway
        before = boundary._assembly.cache_info()
        with pytest.raises(ValidationError) as exc:
            wres_with_boundary(nbar, None, "bogus")
        assert exc.value.field == "mode"
        assert boundary._assembly.cache_info() == before

    def test_printed_discrepancies_reported(self):
        w = wres_with_boundary(4)
        recs = {c["term"]: c for c in w["comparisons"]}
        assert recs["wres_K_coefficient"]["agree"] is False
        assert recs["phi_drift_part"]["agree"] is False
        assert recs["case_c_drift_part"]["agree"] is False

    def test_factorial_domain_flag_at_base_dimension(self):
        w = wres_with_boundary(2)
        recs = {c["term"]: c for c in w["comparisons"]}
        assert "out of domain" in recs["phi_drift_part"]["printed"]
        assert "factorial" in recs["wres_drift_coefficient"]["printed"]

    def test_numeric_substitution(self):
        nbar = 4
        n = nbar + 2
        geo = GeometricBundle(
            n,
            torsion={(1, 2, 3): Fraction(1, 2)},
            X=[Fraction(k, 3) for k in range(1, n + 1)],
            Y=[Fraction(-k, 5) for k in range(1, n + 1)],
            s=Fraction(1),
            divX=Fraction(2),
            divY=Fraction(-1),
            dimF=Fraction(2),
            trPhi=Fraction(3),
            trPhi2=Fraction(5, 2),
            hprime0=Fraction(1, 3),
        )
        w = wres_with_boundary(nbar, geo)
        # boundary cancels identically, so the substituted value is zero
        assert w["boundary"]["value"].is_zero()
        # interior density substitutes to a constant
        assert w["interior"]["density"].subs(geo.assignment()).is_constant()


def _plain(obj):
    """A result as plain dicts, lists and strings, to compare across calls."""
    if isinstance(obj, Mapping):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return str(obj)


def _attempt(mutate):
    """Apply a mutation, which a shared read-only value refuses."""
    try:
        mutate()
    except (TypeError, AttributeError):
        pass


# what total_boundary_phi, wres_with_boundary and bracket_table build from
# nbar alone, each once per process
NBAR_CACHES = ("_brackets", "_bracket_rows", "_assembly")


class TestSharedNbarOnlyValues:
    def test_mutations_do_not_leak_into_the_next_call(self):
        def results():
            return total_boundary_phi(4), wres_with_boundary(4), bracket_table()

        before = _plain(results())
        phi, w, rows = results()
        zero = ParamPoly.zero(standard_alphabet(6))
        for rec in phi["comparisons"] + w["comparisons"] + rows:
            _attempt(lambda: rec.__setitem__("agree", "LEAK"))
            _attempt(lambda: rec.pop("term"))
        for shared in (phi["symbolic"], phi["printed"], phi["structure"], w["groupings"]):
            for key in list(shared):
                _attempt(lambda: shared.__setitem__(key, zero))
            _attempt(lambda: shared.__setitem__("injected", zero))
            _attempt(lambda: shared.clear())
        for fresh in (phi["comparisons"], w["comparisons"], rows,
                      w["boundary"]["comparisons"]):
            fresh.append({"term": "injected"})
        phi["cases"].clear()
        phi["value"] = w["interior"]["density"] = zero
        assert _plain(results()) == before

    def test_cached_polynomials_refuse_mutation(self):
        # the ParamPoly values that the caches hand out keep their terms
        # behind read-only views, so no caller changes a later report
        def reports():
            return [emit(run_session(SessionConfig(4, mode=m)), "json")
                    for m in ("oracle", "printed")]

        before = reports()
        res = boundary_case("b", 4)
        phi = total_boundary_phi(4)
        shared = [res.value, res.printed, *(part["value"] for part in res.parts.values()),
                  *phi["symbolic"].values(), *phi["printed"].values(),
                  *wres_with_boundary(4)["groupings"].values(),
                  geometry._trace_E_symbolic(6), geometry._printed_density(6),
                  *(geometry._interior_density(6, mode) for mode in ("oracle", "printed"))]
        one = GaussRational(1)
        for value in shared:
            with pytest.raises(AttributeError):
                value.terms.clear()
            with pytest.raises(TypeError):
                value.terms[(("s", 1),)] = one
        assert all(part["value"].terms for part in res.parts.values())
        assert reports() == before

    def test_case_integrands_refuse_mutation(self):
        # the traced integrands, whole and per part, are shared by every
        # caller of the case cache, as its values are
        res = boundary_case("b", 4)
        for integrand in (res.integrand, *(part["integrand"] for part in res.parts.values())):
            with pytest.raises(AttributeError):
                integrand.terms.clear()
            with pytest.raises(TypeError):
                integrand.terms[(0, 0)] = ParamPoly.zero(integrand.alphabet)
        assert res.integrand == sum((part["integrand"] for part in res.parts.values()),
                                    HalfPlaneRational.zero(res.integrand.alphabet))

    def test_case_integrand_coefficients_refuse_mutation(self):
        # read-only all the way down: the coefficient polynomials of the
        # shared integrands too
        res = boundary_case("b", 4)
        text = str(res.integrand)
        one = GaussRational(1)
        for integrand in (res.integrand, *(part["integrand"] for part in res.parts.values())):
            for coeff in integrand.terms.values():
                with pytest.raises(AttributeError):
                    coeff.terms.clear()
                with pytest.raises(TypeError):
                    coeff.terms[()] = one
        assert str(boundary_case("b", 4).integrand) == text

    def test_pipeline_symbols_refuse_mutation(self):
        # in a fresh interpreter, before the first session: every map of the
        # shared symbol expansions, down to the coefficient polynomials,
        # refuses a change, and the nbar = 4 report is the one computed here
        code = """
import sys
from ncresidue import SessionConfig, boundary, emit, run_session
made = refused = 0
def attempt(change):
    global made, refused
    made += 1
    try:
        change()
    except (AttributeError, TypeError):
        refused += 1
_, _, op, par, pw = boundary._pipeline(4)
for symbol in (op, par, pw):
    attempt(lambda: symbol.orders.clear())
    for cx in (*symbol.orders.values(), *symbol.meta.get("parts", {}).values()):
        attempt(lambda: cx.terms.clear())
        for xe in cx.terms.values():
            attempt(lambda: xe.terms.clear())
            for poly in xe.terms.values():
                attempt(lambda: poly.terms.clear())
assert made > 100 and refused == made, (refused, made)
sys.stdout.write(emit(run_session(SessionConfig(4)), "json"))
"""
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True).stdout
        assert out == emit(run_session(SessionConfig(4)), "json")

    def test_caches_are_lazy_and_bounded(self):
        names = ", ".join(f"boundary.{name}" for name in NBAR_CACHES)
        code = (
            "import ncresidue.cli\n"
            "from ncresidue import boundary, geometry\n"
            f"for f in ({names}, geometry._printed_density, geometry._interior_density):\n"
            "    assert f.cache_info().currsize == 0, f\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)
        for nbar in (2, 4, 6, 8, 10):
            wres_with_boundary(nbar, mode="printed")
        bracket_table()
        for name in NBAR_CACHES:
            assert getattr(boundary, name).cache_info().currsize <= 5

    def test_invalid_nbar_is_not_cached(self):
        size = boundary._brackets.cache_info().currsize
        for nbar in (0, 3, 12, True):
            with pytest.raises((ValidationError, OddBarDimension, UnsupportedDimension)):
                boundary._brackets(nbar)
        assert boundary._brackets.cache_info().currsize == size


class TestBracketTable:
    def test_reference_rows(self):
        rows = {r["term"]: r for r in bracket_table()}
        assert rows["bracket_m1_p1"]["engine"] == "1/4"
        assert rows["bracket_m1_p2"]["engine"] == "3/8"
        assert rows["bracket_m1_p1"]["agree"] is False
