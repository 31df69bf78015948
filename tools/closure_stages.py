"""Stage split of the benchmark's warm_library closures, tree against tree.

    python3 tools/closure_stages.py TREE[,TREE...] --seed S --rounds R

Each TREE is a checkout (a directory holding src/ncresidue).  For every
round and tree a fresh interpreter, pinned to one core with taskset when
that is present, runs the benchmark's warm_library flow for seed S against
that tree's engine: the untimed warm-up session, the three sessions, then
each closure with its stages timed in turn (the normal form,
laplace_symbol, the substitution of the point data, invert_symbol and
compose_symbols).  Each time is scaled by perfbench/speed.py's probe, run
before and after the closure.  The trees alternate, their order reversed
every other round, and the tool prints the median of each stage over the
rounds in probe-scaled milliseconds.  The job, the substitution and the
probe are this checkout's perfbench; only the engine differs between trees.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
STAGES = ("normal_form", "laplace", "substitute", "invert", "compose")

# run in the child, the job on stdin: {closure: {stage: scaled seconds}}
_CHILD = """
import json, sys, time
from fractions import Fraction
import speed
from child import _substitute
from ncresidue import compose_symbols, emit, invert_symbol, laplace_symbol, load_config
from ncresidue import run_session
from ncresidue.geometry import lichnerowicz_normal_form

names, job = json.load(sys.stdin)
emit(run_session(load_config(job["warmup"])), "json")
probe = speed.Probe()
for text in job["configs"]:
    emit(run_session(load_config(text)), "json")
    probe.after_request()
out = {}
for name, req in zip(names, job["closures"]):
    geo = load_config(req["config"]).bundle()
    point = {**geo.assignment(), **{k: Fraction(v) for k, v in req["jets"].items()}}
    times = []
    t = time.perf_counter()
    nf = lichnerowicz_normal_form(geo)
    times.append(time.perf_counter() - t)
    t = time.perf_counter()
    op = laplace_symbol(geo.n, geo.alphabet, b_term=nf.B)
    times.append(time.perf_counter() - t)
    t = time.perf_counter()
    op = _substitute(op, point)
    times.append(time.perf_counter() - t)
    t = time.perf_counter()
    inverse = invert_symbol(op, req["depth"])
    times.append(time.perf_counter() - t)
    t = time.perf_counter()
    comp = compose_symbols(op, inverse, -2)
    times.append(time.perf_counter() - t)
    kernel, _ = probe.after_request()
    assert comp[-1].is_zero() and comp[-2].is_zero(), name
    out[name] = [speed.scaled(s, kernel) for s in times]
print(json.dumps(out))
"""


def closure_job(seed):
    """(closure names, job) of the warm_library workload at seed."""
    sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]
    import bench

    work = bench.WarmLibrary(seed, None)
    job = {"warmup": work.warmup, "configs": work.configs, "closures": work.closures}
    return work.requests[len(work.sessions):], job


def run_tree(tree, names, job):
    """{closure: [scaled seconds per stage]} of one fresh process on tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(tree, "src"), PERFBENCH])
    argv = [sys.executable, "-c", _CHILD]
    if shutil.which("taskset"):
        argv = ["taskset", "-c", str(max(os.sched_getaffinity(0))), *argv]
    out = subprocess.run(argv, input=json.dumps([names, job]), env=env, cwd=tree,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", help="comma-separated checkouts")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    args = parser.parse_args(argv)
    trees = [os.path.abspath(t) for t in args.trees.split(",")]
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "src", "ncresidue", "__init__.py")):
            parser.error(f"{tree} holds no src/ncresidue")
    names, job = closure_job(args.seed)
    runs = {tree: [] for tree in trees}
    for r in range(args.rounds):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            runs[tree].append(run_tree(tree, names, job))
    print(f"seed {args.seed}, {args.rounds} rounds: medians, probe-scaled ms")
    print(f"{'closure':<20}{'tree':<8}" + "".join(f"{s:>12}" for s in STAGES) + f"{'total':>12}")
    for name in names:
        for k, tree in enumerate(trees):
            stages = [[run[name][i] * 1e3 for run in runs[tree]] for i in range(len(STAGES))]
            totals = [sum(run[name]) * 1e3 for run in runs[tree]]
            cells = [statistics.median(s) for s in stages] + [statistics.median(totals)]
            print(f"{name:<20}{k:<8}" + "".join(f"{c:>12.3f}" for c in cells))
    for k, tree in enumerate(trees):
        print(f"tree {k}: {tree}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
