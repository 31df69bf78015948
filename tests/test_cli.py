"""Command-line interface behavior and exit codes."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncresidue import cli, yamlconfig
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

    @staticmethod
    def added_modules(argv):
        """The modules that one request adds to a fresh interpreter's: its
        own start-up may import random (site hooks do), so only what the
        package run adds is counted."""
        code = (
            "import contextlib, io, sys\n"
            "before = set(sys.modules)\n"
            "import ncresidue.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert ncresidue.cli.main({argv!r}) == 0\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True)
        return set(out.stdout.decode().split())

    def test_plain_report_never_imports_the_oracle_random_or_csv(self):
        # nor the argument parser with its gettext and locale, nor the YAML
        # reader: canonical flags skip argparse
        added = self.added_modules(["--dim", "4", "--format", "json"])
        assert "ncresidue.cli" in added
        unrun = {"ncresidue.oracle", "random", "csv", "argparse", "gettext", "locale",
                 "yaml", "ncresidue.yamlconfig"}
        assert not added & unrun, added

    @pytest.mark.parametrize("argv, loaded", [
        (["--config", "nbar: 2"], {"ncresidue.yamlconfig", "yaml"}),
        (["--dim", "4", "--verify-lemmas", "1"], {"ncresidue.oracle"}),
    ], ids=["config", "lemmas"])
    def test_a_request_loads_the_code_it_runs(self, argv, loaded):
        added = self.added_modules(argv)
        assert loaded <= added, added
        assert "argparse" not in added

    def test_lemma_budget_is_a_clean_error(self, capsys):
        assert main(["--dim", "10", "--verify-lemmas", "5001"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValidationError: verify_lemmas: 5001 trials")
        assert "Traceback" not in err

    def test_any_engine_error_from_config_is_clean(self, capsys, monkeypatch):
        def raising(source):
            raise DimMismatch("dim 4 vs 6")

        monkeypatch.setattr(yamlconfig, "read_config", raising)
        code, out, err = run_main(capsys, ["--config", "nbar: 2"])
        assert (code, out) == (1, "")
        assert err == "error: DimMismatch: dim 4 vs 6\n"


USAGE = (
    "usage: ncresidue [-h] [--dim DIM] [--case {a1,a2,a3,aI,aII,aIII,b,c,all}]\n"
    "                 [--mode {oracle,printed}] [--format {text,json,csv}]\n"
    "                 [--config CONFIG] [--verify-lemmas TRIALS] [--seed SEED]\n"
)
# the help text at 80 columns, as argparse printed it before the flag table
HELP = USAGE + (
    "\nExact residue-density reports with printed-form audits.\n\noptions:\n"
    "  -h, --help            show this help message and exit\n"
    "  --dim DIM             even boundary dimension (2..10)\n"
    "  --case {a1,a2,a3,aI,aII,aIII,b,c,all}\n"
    "                        restrict the boundary computation to one case\n"
    "  --mode {oracle,printed}\n"
    "                        density mode\n"
    "  --format {text,json,csv}\n"
    "                        output format\n"
    "  --config CONFIG       YAML config file or inline YAML text\n"
    "  --verify-lemmas TRIALS\n"
    "                        run the trace-identity verification with this many\n"
    "                        trials\n"
    "  --seed SEED           seed for verification trials\n"
)

# argv drawn around the reader's edges: full flags, abbreviations,
# --flag=value, help, the separator and repeated flags; values with a
# leading -, +, space or _, non-ASCII digits, valid and invalid choices, the
# empty string and YAML text
FLAG = st.sampled_from(
    [*cli._FLAGS]
    + ["--di", "--verify", "--for", "--dim=4", "--case=b", "--seed=-1", "-h", "--help", "--",
       "--unknown"]
)
INT_TEXT = ["2", "4", "07", "-2", "+4", " 4", "4 ", "4_0", "_4", "1 0", "\u0664", "\uff14",
            "", "x", "1e3", "1" * 5000]
CONFIG_TEXT = ["nbar: 2", "nbar: 2\nmode: printed", "", "-x", "--dim", "[oops"]
VALUE = st.sampled_from(INT_TEXT + CONFIG_TEXT + ["a1", "all", "zz", "B", "printed", "csv"])
# a full flag with a value drawn for its kind, mostly a valid one
PAIR = st.sampled_from(list(cli._FLAGS.items())).flatmap(lambda item: st.tuples(
    st.just(item[0]),
    st.sampled_from(INT_TEXT if item[1][1] is int else CONFIG_TEXT if item[1][1] is None
                    else [*item[1][1], "zz", "", "-b"]),
))


def _joined(pairs):
    return [token for pair in pairs for token in pair]


ARGV = st.one_of(
    st.lists(PAIR, max_size=4, unique_by=lambda pair: pair[0]).map(_joined),
    st.lists(PAIR | st.tuples(FLAG, VALUE), max_size=4).map(_joined),
    st.lists(FLAG | VALUE | st.text(max_size=3), max_size=6),
)


def parse_or_exit(argv):
    """vars(parse_args(argv)), or the exit code where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


class TestArgvReader:
    @settings(max_examples=400)
    @given(ARGV)
    @example(["--dim", "4", "--format", "json"])
    @example(["--dim", "2", "--dim", "4"])
    @example(["--case", "zz"])
    @example(["--dim", "-2"])
    def test_reader_equals_argparse_or_declines(self, argv):
        got = cli._read_argv(argv)
        want = parse_or_exit(argv)
        if not isinstance(want, dict):
            assert got is None
        elif got is not None:
            assert vars(got) == want

    @pytest.mark.parametrize("argv", [
        [],
        ["--dim", "4", "--format", "json"],
        ["--dim", "6", "--mode", "printed", "--case", "a2", "--format", "csv"],
        ["--config", "nbar: 2\nmode: printed", "--seed", "7", "--verify-lemmas", "3"],
        ["--dim", " +4_0 ", "--config", ""],
    ])
    def test_canonical_argv_skips_argparse(self, argv):
        assert vars(cli._read_argv(argv)) == parse_or_exit(argv)

    def test_help_is_argparse_own(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli._read_argv(["--help"]) is None
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr() == (HELP, "")

    @pytest.mark.parametrize("argv, message", [
        (["--case", "zz"], "argument --case: invalid choice: 'zz' (choose from 'a1', 'a2', "
                           "'a3', 'aI', 'aII', 'aIII', 'b', 'c', 'all')"),
        (["--dim", "x"], "argument --dim: invalid int value: 'x'"),
        (["--dim"], "argument --dim: expected one argument"),
    ])
    def test_usage_errors_are_argparse_own(self, capsys, monkeypatch, argv, message):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli._read_argv(argv) is None
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", f"{USAGE}ncresidue: error: {message}\n")

    @pytest.mark.parametrize("argv", [["--dim=4"], ["--di", "4"], ["--dim", "2", "--dim", "4"]])
    def test_declined_spellings_read_as_before(self, capsys, argv):
        assert cli._read_argv([*argv, "--format", "json"]) is None
        code, out, err = run_main(capsys, [*argv, "--format", "json"])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == TestReportBytes.REFERENCE[4]

    def test_negative_dimension_reads_as_before(self, capsys):
        assert cli._read_argv(["--dim", "-2"]) is None
        assert run_main(capsys, ["--dim", "-2"]) == (
            1, "", "error: UnsupportedDimension: boundary dimension -2 outside 2..10\n")


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
