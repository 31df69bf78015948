"""Command-line interface behavior and exit codes."""

import hashlib
import json
import subprocess
import sys

import pytest

from ncresidue import cli
from ncresidue.cli import _merge, build_parser, main
from ncresidue.config import CASE_ALIASES, load_config
from ncresidue.errors import DimMismatch


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = run_main(capsys, ["--dim", "2"])
        assert code == 0
        assert "interior_density" in out
        assert err == ""

    def test_missing_dimension(self, capsys):
        code, out, err = run_main(capsys, [])
        assert code == 1
        assert "error" in err

    def test_odd_dimension(self, capsys):
        code, _, err = run_main(capsys, ["--config", "nbar: 3"])
        assert code == 1
        assert "OddBarDimension" in err

    def test_bad_config_yaml(self, capsys):
        code, _, err = run_main(capsys, ["--config", "nbar: [oops"])
        assert code == 1
        assert "ParseError" in err

    def test_integer_past_the_digit_limit(self, capsys):
        # PyYAML's int constructor raises ValueError past Python's digit limit
        code, out, err = run_main(capsys, ["--config", "nbar: 2\ns: " + "1" * 5000])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ParseError: invalid config: Exceeds the limit")
        assert "Traceback" not in err

    def test_deeply_nested_config(self, capsys):
        # PyYAML's composer raises RecursionError past Python's recursion limit
        config = "nbar: 2\ns: " + "[" * 5000 + "]" * 5000
        code, out, err = run_main(capsys, ["--config", config])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ParseError: invalid config: maximum recursion")
        assert "Traceback" not in err

    def test_bad_torsion_triple(self, capsys):
        code, _, err = run_main(
            capsys, ["--config", "nbar: 2\ntorsion:\n  - [2, 1, 3, 1]"]
        )
        assert code == 1
        assert "NonIncreasingTriple" in err

    @pytest.mark.parametrize(
        "text",
        ["nbar: 2\ncases: 5", "nbar: 2\ntorsion: 5", "nbar: 4\ndim: 6",
         "nbar: 2\ns: 1e5000"],
    )
    def test_non_list_config_fields(self, capsys, text):
        code, out, err = run_main(capsys, ["--config", text])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ValidationError: ")
        assert "Traceback" not in err

    def test_config_directory(self, tmp_path, capsys):
        code, out, err = run_main(capsys, ["--config", str(tmp_path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ParseError: cannot read config")
        assert "Traceback" not in err

    def test_undecodable_config_file(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_bytes(b"nbar: \xff\xfe 2\n")
        code, out, err = run_main(capsys, ["--config", str(path)])
        assert code == 1
        assert err.startswith("error: ParseError: cannot read config")

    @pytest.mark.parametrize(
        "text",
        ["nbar: true", "nbar: 2\nseed: false", "nbar: 2\ntorsion:\n  - [true, 2, 3, 1]"],
    )
    def test_boolean_integer_fields(self, capsys, text):
        code, out, err = run_main(capsys, ["--config", text])
        assert code == 1
        assert out == ""
        assert err.startswith("error: ValidationError: ")

    def test_discrepancies_do_not_fail(self, capsys):
        # printed-form disagreements appear in the report but exit 0
        code, out, _ = run_main(capsys, ["--dim", "4", "--format", "csv"])
        assert code == 0
        assert "differs" in out


class TestFlags:
    def test_case_restriction(self, capsys):
        code, out, _ = run_main(capsys, ["--dim", "2", "--case", "a1"])
        assert code == 0
        assert "boundary_case/aI" in out
        assert "boundary_case/b" not in out

    @pytest.mark.parametrize("alias", ["a1", "a2", "a3"])
    def test_case_takes_both_spellings(self, capsys, alias):
        case = CASE_ALIASES[alias]
        assert run_main(capsys, ["--dim", "2", "--case", case]) == run_main(
            capsys, ["--dim", "2", "--case", alias]
        )

    def test_json_format(self, capsys):
        code, out, _ = run_main(capsys, ["--dim", "2", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["metadata"]["nbar"] == 2

    def test_flag_overrides_config(self, capsys):
        code, out, _ = run_main(
            capsys, ["--config", "nbar: 2\nformat: json", "--format", "csv"]
        )
        assert code == 0
        assert out.startswith("id,value,printed,agree,note")

    def test_config_file_path(self, tmp_path, capsys):
        path = tmp_path / "session.yaml"
        path.write_text("nbar: 2\ncases: [b]\n")
        code, out, _ = run_main(capsys, ["--config", str(path)])
        assert code == 0
        assert "boundary_case/b" in out

    def test_dim_flag_completes_config(self, capsys):
        # flags override any key of the file, the dimension included
        code, out, err = run_main(capsys, ["--config", "mode: printed", "--dim", "2"])
        assert (code, err) == (0, "")
        assert "mode=printed" in out and "nbar=2" in out
        code, out, err = run_main(capsys, ["--config", "mode: printed"])
        assert (code, out) == (1, "")
        assert err.startswith("error: ValidationError: nbar")

    def test_flags_laid_over_config(self):
        text = (
            "nbar: 4\nformat: csv\ns: 3/4\nX: [1, 2, 3, 4, 5, 6]\n"
            "torsion:\n  - [1, 2, 3, 1/2]"
        )
        args = build_parser().parse_args(["--config", text, "--seed", "5"])
        expected = load_config(text).as_dict()
        expected["seed"] = 5
        assert _merge(args).as_dict() == expected

    def test_flags_alone_never_import_yaml(self):
        code = (
            "import contextlib, io, sys\n"
            "import ncresidue.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert ncresidue.cli.main(['--dim', '2']) == 0\n"
            "assert 'yaml' not in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_plain_report_never_imports_the_oracle_random_or_csv(self):
        # the interpreter's own start-up may import random (site hooks do),
        # so only what the package run adds is checked
        code = (
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "import ncresidue.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert ncresidue.cli.main(['--dim', '2', '--format', 'json']) == 0\n"
            "added = set(sys.modules) - before\n"
            "assert 'ncresidue.cli' in added\n"
            "assert not added & {'ncresidue.oracle', 'random', 'csv'}, added\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_lemma_budget_is_a_clean_error(self, capsys):
        assert main(["--dim", "10", "--verify-lemmas", "5001"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValidationError: verify_lemmas: 5001 trials")
        assert "Traceback" not in err

    def test_any_engine_error_from_config_is_clean(self, capsys, monkeypatch):
        def raising(source):
            raise DimMismatch("dim 4 vs 6")

        monkeypatch.setattr(cli, "read_config", raising)
        code, out, err = run_main(capsys, ["--config", "nbar: 2"])
        assert (code, out) == (1, "")
        assert err == "error: DimMismatch: dim 4 vs 6\n"


class TestDeterminism:
    def test_byte_identical_runs(self):
        argv = [sys.executable, "-m", "ncresidue.cli", "--dim", "2",
                "--format", "json", "--seed", "7"]
        first = subprocess.run(argv, capture_output=True, check=True)
        second = subprocess.run(argv, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout


class TestReportBytes:
    # sha256 of `ncresidue --dim d --format json`: the reference bytes of
    # the reports, which a change of engine internals must keep identical
    REFERENCE = {
        2: "ffa405d251cf461a5025af1ba9939aea5416ae0cfccb8e5ffd7533e52f46337c",
        4: "ad20e2f72572bca0a5f91bf601c62338b96daabb24b77eb161d13aaf98b90f50",
        6: "9cb6de8003bf6ee623b26dff42a426220beb58f02c3ca66281a69b1db7b23747",
        8: "8187793727c5a64e5074c62c930b48e8600fcc947b15676f571a239f7dcb5a5d",
        10: "bca0320675ae34b73765632c056d775069094b5e38fe67e9cabc8424479e429e",
    }
    # the same for `--mode printed`, whose densities come from the closed form
    PRINTED = {
        2: "4d7a0eaaaf491e55acb78abbbdef496090fde328b3b0200dfdc98515e4fd315e",
        4: "b5ac6b10a4a9135d986f040cb855b7f3f3590ae4f1d6f31761cc6b4fa26f80d5",
        6: "96cce5e273cac3830b3e7f9a1b36600e5044bbf679aab18ad9883d9ae5fcc4f9",
    }
    # the same for the dim-4 audit `--verify-lemmas 4 --seed 0`
    LEMMAS_DIM4 = "5c9f9af890a2065e761a94cd9e81a28a588b23ae9805f9797090738959d7592f"
    # a fully numeric config: how its point data renders in the metadata
    # and config_hash, and how it enters the densities
    NUMERIC = (
        "nbar: 4\nmode: printed\ncases: [b, c]\n"
        "s: 3\ndivX: -1/2\ndivY: 2/3\ndimF: 2\ntrPhi: 1/4\ntrPhi2: -3\nhprime0: 5/7\n"
        "X: [1, -2, 1/2, 0, 3, -1/3]\nY: [0, 1, 2/5, -1, 1, 2]\n"
        "torsion:\n  - [1, 2, 3, 1/2]\n  - [2, 4, 6, -3]\n"
    )
    NUMERIC_PINS = {
        "text": "9d7242da06c0f93531bee83df880817fdd51f5abf4c0e0ec62741ba062a34245",
        "json": "43f72a48b941b030e8ec2a873d6fbae003875c34f830ac8b8715d9dc723c5bd2",
        "csv": "f615d241afc4f35bbfb13054f35483f5873b7d2a930be39171a5e11e65649197",
    }

    @pytest.mark.parametrize("dim", [2, 4, 6, 8, 10])
    def test_json_report_sha256(self, capsys, dim):
        code, out, _ = run_main(capsys, ["--dim", str(dim), "--format", "json"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.REFERENCE[dim]

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_printed_report_sha256(self, capsys, dim):
        argv = ["--dim", str(dim), "--mode", "printed", "--format", "json"]
        code, out, _ = run_main(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.PRINTED[dim]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_numeric_config_sha256(self, capsys, fmt):
        code, out, _ = run_main(capsys, ["--config", self.NUMERIC, "--format", fmt])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.NUMERIC_PINS[fmt]

    def test_reports_form_no_core_products(self):
        # in a fresh interpreter, so that no cached pipeline hides a product:
        # the power factor is a u-power shift, the normal form and the symbol
        # recursions sum in the integer kernel, so the reports d = 2..10 and
        # printed mode at 2, 4, 6 never run the core's all-pairs product
        code = (
            "import contextlib, io\n"
            "import ncresidue.cli\n"
            "from ncresidue.exact import SparseTerms\n"
            "calls, core = [], SparseTerms._product\n"
            "SparseTerms._product = lambda x, y: calls.append(x) or core(x, y)\n"
            "runs = [['--dim', str(d)] for d in (2, 4, 6, 8, 10)]\n"
            "runs += [['--dim', str(d), '--mode', 'printed'] for d in (2, 4, 6)]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in runs:\n"
            "        assert ncresidue.cli.main([*argv, '--format', 'json']) == 0\n"
            "assert not calls, len(calls)\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_reports_build_no_jets_of_w(self):
        # in a fresh interpreter: the jets of W cancel in tr(E), so the
        # interior density of an nbar = 6 report never builds them
        code = (
            "import contextlib, io\n"
            "import ncresidue.cli\n"
            "from ncresidue import geometry\n"
            "calls, jet = [], geometry.twist_vector_jet\n"
            "geometry.twist_vector_jet = lambda *a: calls.append(a) or jet(*a)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert ncresidue.cli.main(['--dim', '6', '--format', 'json']) == 0\n"
            "assert not calls, len(calls)\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)

    def test_lemma_audit_sha256(self, capsys):
        argv = ["--dim", "4", "--format", "json", "--verify-lemmas", "4", "--seed", "0"]
        code, out, _ = run_main(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == self.LEMMAS_DIM4
