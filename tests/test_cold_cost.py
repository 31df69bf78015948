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
    for i in range(2):  # source and code lines add up to the totals
        assert sum(int(rows[m][i]) for m in modules) == int(rows["total"][i])
    assert all(0 < int(rows[m][1]) <= int(rows[m][0]) and float(rows[m][2]) > 0 for m in modules)


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
