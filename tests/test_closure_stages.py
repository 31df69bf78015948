"""Smoke test of tools/closure_stages.py, the stage split of the benchmark's
warm_library closures."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STAGES = ["normal_form", "laplace", "substitute", "invert", "compose", "total"]


def test_one_round_on_this_checkout_times_every_stage_of_both_closures():
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "closure_stages.py"), ROOT,
         "--seed", "1", "--rounds", "1"],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out[0] == "seed 1, 1 rounds: medians, probe-scaled ms"
    assert out[1].split() == ["closure", "tree", *STAGES]
    rows = [line.split() for line in out[2:4]]
    assert [row[:2] for row in rows] == [["closure_n4_depth3", "0"], ["closure_n6_depth2", "0"]]
    for row in rows:
        cells = [float(c) for c in row[2:]]
        assert all(c > 0 for c in cells)
        # one round: the total is the sum of its stages
        assert abs(sum(cells[:-1]) - cells[-1]) < 0.01
    assert out[4:] == [f"tree 0: {ROOT}"]
