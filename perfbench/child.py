"""The benchmark's child process: it serves requests with the engine.

    python3 perfbench/child.py {cli|library|setup} [--trace] < job.json

Reads a job (JSON) on stdin, runs its requests one at a time in this
process, and prints one JSON object on stdout: per-request outputs (and, in
library mode, latency, CPU time and host-speed probe, see speed.py), the
probe around the whole process, plus the tracer's aggregates and spans when
--trace is given.
Requires ``src`` on PYTHONPATH so that the checkout's engine is imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import speed


def _cli(job, tracer):
    from ncresidue import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(job["argv"])
    return [{"exit": code, "report": out.getvalue()}]


def _sessions(configs, tracer, probe):
    from ncresidue import emit, load_config, run_session

    results = []
    for text in configs:
        if tracer is not None:
            tracer.request += 1
        cfg = load_config(text)
        t0, c0 = time.perf_counter(), time.process_time()
        report = emit(run_session(cfg), "json")
        latency, cpu = time.perf_counter() - t0, time.process_time() - c0
        results.append(_timing(latency, cpu, probe) | {"report": report})
    return results


def _timing(latency, cpu, probe):
    kernel, kernel_cpu = probe.after_request()
    return {"latency_s": latency, "cpu_s": cpu, "kernel_s": kernel, "kernel_cpu_s": kernel_cpu}


def _substitute(expansion, assignment):
    """Numeric copy of a symbol expansion with every parameter assigned."""
    from ncresidue.symbols import CliffXi, SymbolExpansion, XiExpr

    def xi(xe):
        return XiExpr(xe.alphabet, {m: p.subs(assignment) for m, p in xe.terms.items()})

    orders = {
        r: CliffXi(cx.dim, cx.alphabet, {k: xi(xe) for k, xe in cx.terms.items()})
        for r, cx in expansion.orders.items()
    }
    return SymbolExpansion(expansion.dim, expansion.alphabet, orders)


def _closures(requests, tracer, probe):
    from fractions import Fraction

    from ncresidue import compose_symbols, invert_symbol, laplace_symbol, load_config
    from ncresidue.geometry import lichnerowicz_normal_form
    from ncresidue.symbols import CliffXi, XiExpr

    results = []
    for req in requests:
        if tracer is not None:
            tracer.request += 1
        geo = load_config(req["config"]).bundle()
        assignment = geo.assignment()
        assignment.update({name: Fraction(v) for name, v in req["jets"].items()})
        t0, c0 = time.perf_counter(), time.process_time()
        nf = lichnerowicz_normal_form(geo)
        op = _substitute(laplace_symbol(geo.n, geo.alphabet, b_term=nf.B), assignment)
        inverse = invert_symbol(op, req["depth"])
        comp = compose_symbols(op, inverse, -2)
        latency, cpu = time.perf_counter() - t0, time.process_time() - c0
        result = _timing(latency, cpu, probe)
        one = CliffXi.scalar(geo.n, XiExpr.const(geo.alphabet, 1))
        if not (comp[0] == one and comp[-1].is_zero() and comp[-2].is_zero()):
            result["error"] = "composition with the inverse does not close to 1 + O(-3)"
        results.append(result)
    return results


def _library(job, tracer):
    from ncresidue import emit, load_config, run_session

    # untimed: fills the engine's caches and finishes lazy set-up first
    emit(run_session(load_config(job["warmup"])), "json")
    probe = speed.Probe()
    return _sessions(job["configs"], tracer, probe) + _closures(job["closures"], tracer, probe)


def _setup(job, tracer):
    from ncresidue import load_config

    load_config(job["config"])
    return []


MODES = {"cli": _cli, "library": _library, "setup": _setup}


def main(argv):
    mode, trace = argv[0], "--trace" in argv[1:]
    # The kernel at the start and the end of the process probes the host's
    # speed for requests that take a whole process (cli, setup).
    first = speed.kernel_time()
    job = json.load(sys.stdin)
    import ncresidue  # noqa: F401

    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = MODES[mode](job, tracer)
    last = speed.kernel_time()
    out = {
        "requests": results,
        "probe": {
            "kernel_s": (first[0] + last[0]) / 2,
            "kernel_cpu_s": (first[1] + last[1]) / 2,
            "own_s": first[0] + last[0],
            "own_cpu_s": first[1] + last[1],
        },
    }
    if tracer is not None:
        out["trace"] = tracer.snapshot()
        out["cache"] = tracing.cache_info()
    sys.stdout.write(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
