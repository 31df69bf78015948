"""Benchmark runner for ncresidue.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it repeats passes over
the workload's request list until S seconds have passed, timing the set-up
before each pass, and reports the end-to-end metrics: medians over the run,
with every time scaled by the host-speed probe of speed.py.
With --trace 1 it runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass.  Every request's output is checked;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record of the run, with its
provenance and spans, goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time

import bench
import speed

# Set-up is timed a few times before each pass, so that its median is
# spread over the run like the passes are.
SETUP_PER_PASS = 2
# A run makes at least this many passes, unless its deadline comes first.
MIN_PASSES = 2

# metric name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "request_p50_s": ("s", "lower"),
    "request_max_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# layers reported with calls and self time, or with self time only
CALLS_AND_SELF = (
    "geometry.trace_E_density",
    "geometry.normal_form",
    "geometry.connection_and_E",
    "clifford.mul",
    "clifford.trace",
    "clifford.matrix_mul",
    "clifford.represent",
    "exact.poly_mul",
    "exact.poly_add",
    "exact.poly_subs",
    "symbols.jet_mul",
    "halfplane.pi_plus",
    "halfplane.partial_fractions",
    "halfplane.integral",
)
SELF_ONLY = (
    "clifford.lemmas",
    "symbols.laplace",
    "symbols.invert",
    "symbols.compose",
    "symbols.power",
    "boundary.case",
    "boundary.assembly",
    "report.session",
)
COUNTS = (
    "geometry.E_terms",
    "clifford.mul.term_pairs",
    "exact.alphabet_eq.calls",
    "exact.gauss_mul.calls",
    "exact.gauss_add.calls",
    "symbols.inverse_terms",
)


def per_layer_spec():
    """metric name -> (unit, better, how to read it from the traced pass)."""
    spec = {}
    for layer in CALLS_AND_SELF:
        spec[f"{layer}.calls"] = ("count", "lower", ("calls", layer))
        spec[f"{layer}.self_s"] = ("s", "lower", ("self", layer))
    for layer in SELF_ONLY:
        spec[f"{layer}.self_s"] = ("s", "lower", ("self", layer))
    for name in COUNTS:
        spec[name] = ("count", "lower", ("count", name))
    spec["config.load_s"] = ("s", "lower", ("self", "config.load"))
    spec["report.emit_s"] = ("s", "lower", ("self", "report.emit"))
    spec["boundary.cache.hit_ratio"] = ("ratio", "higher", ("cache", None))
    spec["trace.overhead_s"] = ("s", "lower", ("overhead", None))
    return spec


def layer_metrics(traced, untraced):
    calls, self_ns, counts = {}, {}, {}
    hits = attempts = 0
    for entry in traced.traces:
        for layer, (n, _total, own) in entry["trace"]["stats"].items():
            calls[layer] = calls.get(layer, 0) + n
            self_ns[layer] = self_ns.get(layer, 0) + own
        for name, n in entry["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + n
        hits += entry["cache"]["hits"]
        attempts += entry["cache"]["attempts"]
    out = {}
    for metric, (unit, _better, (kind, key)) in per_layer_spec().items():
        if kind == "calls":
            value = calls.get(key, 0)
        elif kind == "self":
            value = self_ns.get(key, 0) / 1e9
        elif kind == "count":
            value = counts.get(key, 0)
        elif kind == "cache":
            value = hits / attempts if attempts else 0.0
        else:
            value = traced.wall - untraced.wall
        out[metric] = {"value": value, "unit": unit}
    return out


def per_request(passes):
    """Each request's median scaled (latency, cpu) over the run's repetitions."""
    samples = {}
    for p in passes:
        for r in p.requests:
            # a crashed library child leaves no probe; its times stay unscaled
            kernel, kernel_cpu = r.kernel or (speed.REFERENCE_S, speed.REFERENCE_S)
            samples.setdefault(r.id, []).append(
                (speed.scaled(r.latency, kernel), speed.scaled(r.cpu, kernel_cpu))
            )
    return [
        (statistics.median(lat for lat, _ in s), statistics.median(cpu for _, cpu in s))
        for s in samples.values()
    ]


def end_to_end_metrics(setup_s, passes):
    """Per-run values, all times scaled to the reference host speed (speed.py)."""
    medians = per_request(passes)
    latencies = [lat for lat, _ in medians]
    values = {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "cpu_s": sum(cpu for _, cpu in medians),
        "request_p50_s": statistics.median(latencies),
        "request_max_s": max(latencies),
        "peak_rss_mb": bench.peak_rss_mb(),
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}


def _git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = bench.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((bench.SRC / "ncresidue").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args):
    return {
        "command": list(getattr(sys, "orig_argv", [sys.executable, *sys.argv])),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _pass_record(p):
    return {
        "wall_s": p.wall,
        "cpu_s": p.cpu,
        "requests": [
            {
                "id": r.id,
                "latency_s": r.latency,
                "cpu_s": r.cpu,
                "kernel_s": r.kernel,
                "problems": r.problems,
            }
            for r in p.requests
        ],
    }


def run(args):
    deadline = bench.Deadline()
    workload = bench.WORKLOADS[args.workload](args.seed, bench.load_reference())
    record = {"provenance": provenance(args)}
    if args.trace:
        untraced = workload.run_pass(deadline)
        traced = workload.run_pass(deadline, trace=True)
        passes = [untraced, traced]
        metrics = layer_metrics(traced, untraced)
        record["traces"] = traced.traces
    else:
        bench.time_setup(workload, deadline, 1)  # may write bytecode; not measured
        setup, passes = [], []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            setup += bench.time_setup(workload, deadline, SETUP_PER_PASS)
            passes.append(workload.run_pass(deadline))
            last = time.monotonic() - t0
            # stop when another pass would end further past the time budget
            # than this one ends before it, or past the run's deadline
            full = time.monotonic() - start + last / 2 >= args.seconds
            if (full and len(passes) >= MIN_PASSES) or deadline.left() < 2 * last:
                break
        metrics = end_to_end_metrics(statistics.median(setup), passes)
    requests = [r for p in passes for r in p.requests]
    for req in requests:
        workload.check(req, deadline)
    failed = sum(1 for r in requests if r.problems)
    result = {
        "correct": failed == 0,
        "attempted": len(requests),
        "failed": failed,
        "metrics": metrics,
    }
    record["passes"] = [_pass_record(p) for p in passes]
    record["result"] = result
    bench.OUT_DIR.mkdir(exist_ok=True)
    out = bench.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for req in requests:
        for why in req.problems:
            print(f"FAILED {req.id}: {why}", file=sys.stderr)
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not bench.engine_present():
        print(f"error: no engine sources under {bench.SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    if hasattr(os, "sched_setaffinity"):
        # one core for the runner and its children, so that each request and
        # the kernel runs that scale it share a core's contention
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
