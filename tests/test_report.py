"""Report assembly, emission formats, and determinism."""

import csv
import io
import json
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ncresidue import boundary, cli, geometry
from ncresidue import report as report_mod
from ncresidue.config import FORMATS, SessionConfig, load_config
from ncresidue.errors import ParseError, ValidationError
from ncresidue.exact import ParamPoly
from ncresidue.report import Report, emit, parse_report_json, run_session


@pytest.fixture(scope="module")
def report():
    return run_session(SessionConfig(nbar=2))


class TestRunSession:
    def test_core_records_present(self, report):
        ids = [r["id"] for r in report.records]
        for rec_id in (
            "interior_density",
            "boundary_phi",
            "boundary_phi_hprime_part",
            "boundary_phi_drift_part",
            "wres_K_coefficient",
            "boundary_case/aI",
            "boundary_case/c",
            "extrinsic_K",
        ):
            assert rec_id in ids

    def test_metadata(self, report):
        meta = report.metadata
        assert meta["nbar"] == 2
        assert meta["mode"] == "oracle"
        assert len(meta["config_hash"]) == 64

    def test_extrinsic_K_value(self):
        rep = run_session(SessionConfig(nbar=4, cases=["aI"]))
        rec = next(r for r in rep.records if r["id"] == "extrinsic_K")
        assert rec["value"] == "-5/2*hp0"

    def test_case_selection(self):
        rep = run_session(SessionConfig(nbar=2, cases=["b"]))
        case_ids = [r["id"] for r in rep.records
                    if r["id"].startswith("boundary_case/")]
        assert case_ids == ["boundary_case/b"]

    def test_deterministic(self):
        a = run_session(SessionConfig(nbar=2))
        b = run_session(SessionConfig(nbar=2))
        assert a == b
        assert emit(a, "json") == emit(b, "json")

    def test_lemma_records_when_requested(self):
        rep = run_session(SessionConfig(nbar=2, verify_lemmas=2))
        lemma = [r for r in rep.records if r["id"].startswith("trace_identity/")]
        assert lemma
        assert all(r["value"] == "pass" for r in lemma)


class TestEmit:
    def test_text_table(self, report):
        text = emit(report, "text")
        assert text.endswith("\n")
        header = text.splitlines()[0]
        assert header.startswith("id")
        assert "config=" in text.splitlines()[-1]

    def test_csv_parses(self, report):
        rows = list(csv.reader(io.StringIO(emit(report, "csv"))))
        assert rows[0] == ["id", "value", "printed", "agree", "note"]
        assert len(rows) == len(report.records) + 1

    def test_json_roundtrip_lossless(self, report):
        text = emit(report, "json")
        again = parse_report_json(text)
        assert again == report
        assert emit(again, "json") == text

    @pytest.mark.parametrize("text", [
        "x", "[]", "{}", '{"records": 1, "metadata": {}}', '{"records": [], "metadata": []}',
        '{"records": []}', "1" * 5000,
    ])
    def test_text_that_is_not_a_report(self, text):
        # not JSON, not an object, or records not a list or metadata not an
        # object: each a ParseError, never a raw JSON, type or key error
        with pytest.raises(ParseError, match="^report "):
            parse_report_json(text)

    def test_json_is_valid(self, report):
        data = json.loads(emit(report, "json"))
        assert set(data) == {"metadata", "records"}

    def test_unknown_format(self, report):
        with pytest.raises(ValidationError) as exc:
            emit(report, "xml")
        assert exc.value.field == "format"

    @pytest.mark.parametrize("fmt", ["xml", None, ["json"]], ids=["name", "none", "list"])
    def test_unknown_format_refused_before_any_row(self, fmt):
        # refused before any record is read: this one cannot be mapped to
        # a row
        report = Report([None], {})
        with pytest.raises(ValidationError, match="expected one of"):
            emit(report, fmt)


class TestErrorRecords:
    def test_session_continues_after_quantity_error(self, monkeypatch):
        import ncresidue.report as report_mod

        def boom(*args, **kwargs):
            from ncresidue.errors import ValidationError
            raise ValidationError("x", "synthetic failure")

        monkeypatch.setattr(report_mod, "trace_density_report", boom)
        rep = run_session(SessionConfig(nbar=2))
        ids = [r["id"] for r in rep.records]
        assert "trace_density" in ids
        err = next(r for r in rep.records if r["id"] == "trace_density")
        assert "ValidationError" in err["note"]
        # later quantities still ran
        assert any(i.startswith("bracket/") for i in ids)

    def test_block_keeps_records_yielded_before_its_error(self, monkeypatch):
        import ncresidue.report as report_mod
        from ncresidue.errors import ValidationError

        def partial(n):
            yield {"term": "probe", "oracle": "1", "printed": "1", "agree": True}
            raise ValidationError("x", "synthetic failure")

        monkeypatch.setattr(report_mod, "trace_density_report", partial)
        ids = [r["id"] for r in run_session(SessionConfig(nbar=2)).records]
        k = ids.index("trace_density/probe")
        assert ids[k + 1] == "trace_density"
        assert [i for i in ids if i.startswith("trace_density")] == ids[k:k + 2]
        # the next block still ran
        assert ids[k + 2].startswith("bracket/")

    def test_failed_lemma_audit_is_one_error_record(self, monkeypatch):
        import ncresidue.oracle as oracle_mod
        from ncresidue.errors import ValidationError

        def boom(*args, **kwargs):
            raise ValidationError("trials", "synthetic failure")

        monkeypatch.setattr(oracle_mod, "verify_trace_lemmas", boom)
        records = run_session(SessionConfig(nbar=2, verify_lemmas=1)).records
        ids = [r["id"] for r in records]
        assert [i for i in ids if i.startswith("trace_identity")] == ["trace_identity"]
        assert ids[:2] == ["trace_identity", "interior_density"]
        assert "ValidationError" in records[0]["note"]

    def test_value_past_the_digit_limit_is_an_error_record(self):
        # each accepted Y component renders, but the printed density's |Y|^2
        # term has about 5,000 digits; it used to raise a raw ValueError
        cfg = SessionConfig(2, mode="printed", Y=[10 ** 2500] * 4,
                            scalars={"trPhi2": 1, "dimF": 1})
        rep = run_session(cfg)
        ids = [r["id"] for r in rep.records]
        assert ids[0] == "boundary"
        assert rep.records[0]["note"].startswith("error: EngineError: interior_density")
        # the later blocks still ran, and the report emits in every format
        assert "extrinsic_K" in ids and ids[-1].startswith("bracket/")
        for fmt in ("text", "json", "csv"):
            emit(rep, fmt)


# Sessions that share one process: numeric point data at nbar 4 in both
# modes, numeric at nbar 6, then symbolic at nbar 6; numeric at nbar 2 too.
NUMERIC_2 = (
    "nbar: 2\ns: -3\ndivX: 1/2\ndivY: 2\ndimF: 2\ntrPhi: 1/3\ntrPhi2: -1\n"
    "hprime0: 3/4\nX: [2, -1, 1/3, 1]\nY: [1, 1/2, -2, 3]\n"
    "torsion:\n  - [1, 2, 3, 1/2]\n  - [2, 3, 4, -1]\n"
)
NUMERIC_4 = (
    "nbar: 4\ns: 2\ndivX: 1/3\ndivY: -1\ndimF: 3\ntrPhi: -1/2\ntrPhi2: 2\n"
    "hprime0: 1/5\nX: [1, 2, -1, 1/2, 0, 3]\nY: [1/3, -1, 2, 0, 1, -2]\n"
    "torsion:\n  - [1, 2, 3, 2]\n  - [1, 5, 6, -1/4]\n"
)
PRINTED_4 = (
    "nbar: 4\nmode: printed\ns: -1\ndimF: 2\ntrPhi: 3\ntrPhi2: 1/2\nhprime0: 2\n"
    "X: [0, 1, 1, 2, -1, 1/4]\nY: [2, 0, -1, 1, 1/2, 1]\ntorsion:\n  - [2, 3, 4, 1]\n"
)
NUMERIC_6 = (
    "nbar: 6\ns: 1/2\ndivX: 2\ndimF: -1\ntrPhi: 1\ntrPhi2: 1/3\nhprime0: -2\n"
    "X: [1, 0, 2, -1, 1/2, 1, 3, -2]\nY: [0, 1, -1, 2, 1, 1/4, -3, 1]\n"
    "torsion:\n  - [1, 2, 3, 1]\n  - [3, 5, 8, -2]\n"
)
SYMBOLIC_6 = "nbar: 6\n"


class TestWarmSessions:
    def test_sessions_in_one_process_equal_fresh_processes(self, capsys):
        configs = [NUMERIC_4, PRINTED_4, NUMERIC_6, SYMBOLIC_6]
        fresh = [
            subprocess.Popen(
                [sys.executable, "-m", "ncresidue.cli", "--config", text,
                 "--format", "json"],
                stdout=subprocess.PIPE,
            )
            for text in configs
        ]
        expected = [proc.communicate()[0].decode("utf-8") for proc in fresh]
        assert [proc.returncode for proc in fresh] == [0] * 4
        for text, want in zip(configs, expected):
            assert cli.main(["--config", text, "--format", "json"]) == 0
            assert capsys.readouterr().out == want

    def test_warm_sessions_equal_fresh_processes_in_every_format(self):
        code = (
            "import json, sys\n"
            "from ncresidue import emit, load_config, run_session\n"
            "rep = run_session(load_config(sys.argv[1]))\n"
            f"print(json.dumps([emit(rep, f) for f in {FORMATS!r}]))\n"
        )
        configs = [NUMERIC_2, NUMERIC_4, NUMERIC_6]
        fresh = [subprocess.Popen([sys.executable, "-c", code, text], stdout=subprocess.PIPE)
                 for text in configs]
        expected = [json.loads(proc.communicate()[0]) for proc in fresh]
        assert [proc.returncode for proc in fresh] == [0] * 3
        for text, want in zip(configs, expected):
            # a session of its own per format, each after the first warm
            assert [emit(run_session(load_config(text)), f) for f in FORMATS] == want

    def test_second_session_builds_no_nbar_only_value(self, monkeypatch):
        calls = []
        for name in ("deriv_at_i", "printed_phi_parts", "printed_wres_k_coefficient"):
            real = getattr(boundary, name)
            monkeypatch.setattr(
                boundary, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
            )
        texts = [geometry._density_rows, report_mod._nbar_records]
        cached = [geometry._printed_density, geometry._interior_density, boundary._brackets,
                  boundary._bracket_rows, boundary._assembly, *texts]
        # the interior density is cached per mode, so the warm-up serves both
        for text in (NUMERIC_4, NUMERIC_4 + "mode: printed\n"):
            run_session(load_config(text))
        misses = [f.cache_info().misses for f in cached]
        hits = [f.cache_info().hits for f in texts]
        calls.clear()
        # the second session renders only the four polynomials that read its
        # point data: the interior density and the three boundary values
        rendered, real_str = [], ParamPoly.__str__
        monkeypatch.setattr(ParamPoly, "__str__", lambda p: rendered.append(p) or real_str(p))
        # and substitutes into those four once each: the interior density
        # with its curvature term is one cached polynomial
        substituted, real_subs = [], ParamPoly.subs
        monkeypatch.setattr(ParamPoly, "subs",
                            lambda p, partial: substituted.append(p) or real_subs(p, partial))
        run_session(load_config(PRINTED_4))
        assert calls == []
        assert [f.cache_info().misses for f in cached] == misses
        assert all(f.cache_info().hits > h for f, h in zip(texts, hits))
        assert len(rendered) == 4
        assert len(substituted) == 4

        # once a session at nbar 6 has been emitted, a second one encodes its
        # four point-data records and its metadata; every other record reuses
        # its kept text
        emit(run_session(load_config(NUMERIC_6)), "json")
        rep = run_session(load_config(SYMBOLIC_6))
        encoded, real_indented = [], report_mod._indented
        monkeypatch.setattr(report_mod, "_indented", lambda obj, indent: encoded.append(obj)
                            or real_indented(obj, indent))
        text = emit(rep, "json")
        assert [obj for obj in encoded if obj is rep.metadata] == [rep.metadata]
        assert sorted(obj["id"] for obj in encoded if obj is not rep.metadata) == [
            "boundary_phi", "boundary_phi_drift_part", "boundary_phi_hprime_part",
            "interior_density"]
        assert text == _oracle_json(rep)


def _oracle_json(report):
    """The whole report in one json.dumps: the oracle of emit's JSON."""
    return json.dumps({"metadata": report.metadata, "records": report.records},
                      sort_keys=True, indent=2, ensure_ascii=False)


def _assert_json(report):
    text = emit(report, "json")
    assert text == _oracle_json(report)
    assert parse_report_json(text) == report


# text with quotes, backslashes, newlines, tabs and non-ASCII characters
TEXT = st.text(max_size=6) | st.text('"\\\n\t/ aé€\u2028', max_size=6)
AGREE = st.sampled_from([True, False, None])
RECORD = st.fixed_dictionaries(
    {"id": TEXT, "value": TEXT, "printed": TEXT, "agree": AGREE, "note": TEXT},
    optional={"trace": st.lists(st.dictionaries(TEXT, TEXT, max_size=3), max_size=2)},
)
# what a caller might write into a record: a flag that == a bool, text, a list
VALUE = AGREE | st.sampled_from([0, 1, 1.0, -0.0]) | TEXT | st.lists(TEXT, max_size=2)
SESSIONS = [NUMERIC_2, NUMERIC_4, PRINTED_4, NUMERIC_6, SYMBOLIC_6]


class TestJsonTexts:
    """emit's JSON, written from kept record texts, against the oracle."""

    @given(st.sampled_from(SESSIONS), st.booleans(), st.data())
    def test_session_reports_with_changed_records(self, text, first, data):
        # with first, the report is the first session at its nbar, the one
        # whose records the report module keeps copies of; its texts are
        # rendered before a record changes
        with mock.patch.dict(report_mod._kept, clear=first):
            report = run_session(load_config(text))
            _assert_json(report)
            for _ in range(data.draw(st.integers(0, 2))):
                rec = data.draw(st.sampled_from(report.records))
                rec[data.draw(st.sampled_from(sorted(rec)))] = data.draw(VALUE)
            if data.draw(st.booleans()):  # claim the nbar of another session
                report.metadata["nbar"] = data.draw(st.sampled_from([2, 4, 6]))
            _assert_json(report)

    def test_numbers_equal_to_a_flag_are_encoded_as_numbers(self):
        # True == 1 and False == 0.0, so such a record equals the kept copy
        # whose text says true or false
        report = run_session(load_config(NUMERIC_6))
        emit(report, "json")
        for rec in report.records:
            if isinstance(rec["agree"], bool):
                rec["agree"] = 1 if rec["agree"] else 0.0
        _assert_json(report)

    @given(st.lists(st.sampled_from(SESSIONS), min_size=1, max_size=2), st.data())
    def test_hand_built_reports(self, texts, data):
        # records of plain dicts, some copied from sessions at other nbar,
        # and values that are not records at all
        shared = [rec for text in texts for rec in run_session(load_config(text)).records]
        records = data.draw(st.lists(RECORD | st.sampled_from(shared) | st.none() | TEXT,
                                     max_size=6))
        metadata = data.draw(st.fixed_dictionaries({}, optional={
            "nbar": st.sampled_from([2, 4, 6, 8, "6", [6], None]), "mode": TEXT,
            "seed": st.integers()}))
        _assert_json(Report(records, metadata))

    @example(records=[], metadata={})
    @example(records=[], metadata={"nbar": 6})
    @given(st.lists(RECORD, max_size=3), st.dictionaries(TEXT, TEXT | st.integers(), max_size=3))
    def test_reports_without_sessions(self, records, metadata):
        _assert_json(Report(records, metadata))
