"""Smoke test of tools/cold_cost.py, the per-module compile cost of a cold
request."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import cold_cost  # noqa: E402


def test_a_dim_2_report_lists_the_modules_it_compiles():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "cold_cost.py"), "--", "--dim", "2"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0] == "request: ncresidue --dim 2 (exit 0)"
    rows = {line.split()[0]: line.split()[1:] for line in out[2:]}
    assert {"ncresidue.cli", "ncresidue.boundary", "total"} <= set(rows)
    assert not {"ncresidue.oracle", "ncresidue.yamlconfig"} & set(rows)
    modules = [name for name in rows if name != "total"]
    for i in range(3):  # source lines, code lines and statements add up to the totals
        assert sum(int(rows[m][i]) for m in modules) == int(rows["total"][i])
    assert all(0 < int(rows[m][1]) <= int(rows[m][0]) and int(rows[m][2]) > 0
               and float(rows[m][3]) > 0 for m in modules)


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = (
        '"""Module\n\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f(a,\n"
        "      b):\n"
        '    """Docstring."""\n'
        "    return {\n"
        "        a: b,  # inside\n"
        "    }\n"
    )
    # the two header lines of f and the three lines of its return
    assert cold_cost.code_lines(source) == 5


def test_statements_skip_docstrings_and_ignore_wrapping():
    doc = '"""Module docstring."""\n'
    one_line = doc + "def f(a, b): return {a: b}\n"
    wrapped = doc + (
        "def f(a,\n"
        "      b):\n"
        "    return {a: b}\n"
    )
    # the def and its return, on one line or three; code lines count the lines
    assert cold_cost.statements(one_line) == cold_cost.statements(wrapped) == 2
    assert (cold_cost.code_lines(one_line), cold_cost.code_lines(wrapped)) == (1, 3)
