"""Workloads, request execution and output checks of the ncresidue benchmark.

Every workload is a closed loop with one client: run.py sends a request
only after the previous one has finished, and every request runs in a child
process, one at a time, so the engine's single-threaded cost is what gets
measured.  See README.md in this directory for why each workload exists
and which layer metrics should move which end-to-end metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0
# Whole runs stay below 180 s; a request gets what is left.
RUN_DEADLINE_S = 170.0

# Pass sizes: on a 2-core Xeon VM a cold_cli pass takes 4-6 s and a
# warm_library pass 6-9 s, so a 50 s run times every request six to ten
# times.  Requests are kept short, so that the host-speed probe next to each
# (speed.py) sees the speed it ran at.  So the nbar=8 and nbar=10 reports
# (5-7 s and 17 s), the dim-6 lemma audit (4-6 s for one trial) and closures
# at (n=4, depth 4) and (n=6, depth 3) (3 s and 7 s) are left out of the
# timed passes; the nbar=8 and nbar=10 reference hashes are checked by
# test_perfbench.py.
REPORT_DIMS = (2, 4, 6)
REFERENCE_DIMS = (2, 4, 6, 8, 10)
LEMMA_REQUESTS = ((4, 4),)  # (dim, trials)
SESSION_NBAR, SESSION_CONFIGS = 6, 3
CLOSURE_REQUESTS = ((4, 3), (6, 2))  # (n, inversion depth)

SCALAR_FIELDS = ("s", "divX", "divY", "dimF", "trPhi", "trPhi2", "hprime0")


def engine_present():
    return (SRC / "ncresidue" / "__init__.py").is_file()


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # str hashes fix dict/set orders inside the engine, so traced counts repeat
    env["PYTHONHASHSEED"] = "0"
    return env


class Deadline:
    def __init__(self, seconds=RUN_DEADLINE_S):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run deadline reached")
        return left


class Proc:
    __slots__ = ("wall", "cpu", "code", "out", "err")

    def __init__(self, wall, cpu, code, out, err):
        self.wall, self.cpu, self.code, self.out, self.err = wall, cpu, code, out, err


def spawn(argv, deadline, stdin=b""):
    """Run one child to completion; wall and CPU time are the child's own."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(
        argv,
        input=stdin,
        capture_output=True,
        env=child_env(),
        cwd=ROOT,
        timeout=deadline.left(),
    )
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return Proc(
        wall,
        cpu,
        proc.returncode,
        proc.stdout.decode("utf-8", "replace"),
        proc.stderr.decode("utf-8", "replace"),
    )


def peak_rss_mb():
    """Highest resident set of any child waited for so far (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def cli_argv(args):
    return [sys.executable, "-m", "ncresidue.cli", *args]


def child_argv(mode, trace):
    return [sys.executable, str(HERE / "child.py"), mode] + (["--trace"] if trace else [])


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class Request:
    """Outcome of one request: latency, CPU time, the host-speed probe's
    (wall, cpu) next to it, and the problems its checks found."""

    __slots__ = ("id", "latency", "cpu", "kernel", "problems", "report")

    def __init__(self, rid, latency, report=None, cpu=0.0, kernel=None):
        self.id, self.latency, self.report, self.cpu = rid, latency, report, cpu
        self.kernel = kernel
        self.problems = []

    def fail(self, why):
        self.problems.append(why)


class Pass:
    """One pass over a workload's fixed request list."""

    __slots__ = ("wall", "cpu", "requests", "traces")

    def __init__(self):
        self.wall = self.cpu = 0.0
        self.requests = []
        self.traces = []  # one tracer snapshot per child process

    def add_proc(self, proc):
        self.wall += proc.wall
        self.cpu += proc.cpu


def check_report(req, expected_sha=None):
    """Checks every JSON report gets: round trip, no error records, hash."""
    from ncresidue import emit, parse_report_json

    text = req.report
    try:
        parsed = parse_report_json(text)
    except (ValueError, KeyError, TypeError) as exc:
        req.fail(f"report is not valid JSON: {exc}")
        return None
    if emit(parsed, "json") != text:
        req.fail("report does not round-trip through parse_report_json")
    for rec in parsed.records:
        if str(rec.get("note", "")).startswith("error:"):
            req.fail(f"error record {rec['id']}: {rec['note']}")
    if expected_sha is not None and sha256(text) != expected_sha:
        req.fail("report sha256 differs from the reference")
    return parsed


def _parse_child(proc, req_ids):
    """Requests, trace, cache counts and process probe from a child's JSON
    output; a crashed child fails every request."""
    if proc.code == 0:
        try:
            data = json.loads(proc.out)
            return data["requests"], data.get("trace"), data.get("cache"), data["probe"]
        except (ValueError, KeyError):
            pass
    why = f"child exited {proc.code}: {proc.err.strip()[-300:]}"
    return [{"error": why} for _ in req_ids], None, None, None


def process_timing(proc, probe):
    """Latency, CPU time and probe (wall, cpu) of a request that took a whole
    child process, less the time of the probe's own kernel runs."""
    if probe is None:  # crashed child: no probe, times unscaled
        return proc.wall, proc.cpu, None
    return (
        proc.wall - probe["own_s"],
        proc.cpu - probe["own_cpu_s"],
        (probe["kernel_s"], probe["kernel_cpu_s"]),
    )


class Workload:
    name = ""

    def __init__(self, seed, reference):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.reference = reference

    def setup_config(self):
        """YAML text of the workload's config, as a user would load it."""
        raise NotImplementedError

    def run_pass(self, deadline, trace=False):
        raise NotImplementedError

    def check(self, req, deadline):
        raise NotImplementedError


def report_args(dim):
    return ["--dim", str(dim), "--format", "json"]


class ColdCli(Workload):
    """One fresh `ncresidue` process per request: plain reports at nbar 2..6
    and a `--verify-lemmas` audit, in a seed-shuffled order."""

    name = "cold_cli"

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        requests = [(f"report_dim{d}", report_args(d)) for d in REPORT_DIMS]
        requests += [
            (f"lemma_dim{d}", report_args(d) + ["--verify-lemmas", str(t), "--seed", str(seed)])
            for d, t in LEMMA_REQUESTS
        ]
        self.rng.shuffle(requests)
        self.requests = requests

    def setup_config(self):
        return json.dumps({"nbar": REPORT_DIMS[0], "format": "json"})

    def run_pass(self, deadline, trace=False):
        p = Pass()
        for rid, args in self.requests:
            job = json.dumps({"argv": args}).encode()
            proc = spawn(child_argv("cli", trace), deadline, job)
            (res,), snap, cache, probe = _parse_child(proc, [rid])
            if snap is not None:
                p.traces.append({"request": rid, "trace": snap, "cache": cache})
            p.add_proc(proc)
            report = res.get("report") if res.get("exit") == 0 else None
            latency, cpu, kernel = process_timing(proc, probe)
            req = Request(rid, latency, report, cpu, kernel)
            if report is None:
                code = res.get("exit", proc.code)
                req.fail(f"exit {code}: {res.get('error', proc.err.strip()[-300:])}")
            p.requests.append(req)
        return p

    def check(self, req, deadline):
        if req.problems:
            return
        kind, dim = req.id.split("_dim")
        if kind == "report":
            check_report(req, self.reference["reports"][dim])
            return
        lemmas = self.reference["lemmas"]
        expected = lemmas["sha256"][dim] if self.seed == lemmas["seed"] else None
        parsed = check_report(req, expected)
        if parsed is None:
            return
        printed = {}
        for rec in parsed.records:
            if rec["id"].startswith("trace_identity/"):
                if rec["value"] != "pass":
                    req.fail(f"{rec['id']} oracle status {rec['value']}")
                printed[rec["id"]] = rec["printed"]
        if printed != lemmas["printed_status"][dim]:
            req.fail("printed-status pattern differs from the reference")


def _rational(rng, span):
    """A nonzero small rational: no zero drops terms, so a request's
    expression sizes do not depend on the seed."""
    return f"{rng.choice((-1, 1)) * rng.randint(1, span)}/{rng.randint(1, 4)}"


def numeric_config(rng, nbar):
    """A fully numeric session config (JSON, which is also YAML)."""
    n = nbar + 2
    cfg = {"nbar": nbar, "format": "json"}
    cfg.update({f: _rational(rng, 6) for f in SCALAR_FIELDS})
    cfg["X"] = [_rational(rng, 3) for _ in range(n)]
    cfg["Y"] = [_rational(rng, 3) for _ in range(n)]
    cfg["torsion"] = [
        [a, b, c, _rational(rng, 3)]
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        for c in range(b + 1, n + 1)
    ]
    return json.dumps(cfg)


class WarmLibrary(Workload):
    """One process per pass: an untimed warm-up session, then `run_session` +
    `emit` on numeric configs, then symbol inversion and composition on
    numeric geometric data."""

    name = "warm_library"

    def __init__(self, seed, reference):
        super().__init__(seed, reference)
        from ncresidue.geometry import standard_alphabet

        self.configs = [numeric_config(self.rng, SESSION_NBAR) for _ in range(SESSION_CONFIGS)]
        self.closures = []
        for n, depth in CLOSURE_REQUESTS:
            jets = {
                name: _rational(self.rng, 3)
                for name in standard_alphabet(n).names
                if name.startswith(("dX_", "dY_", "dT_")) or name == "VolS"
            }
            self.closures.append(
                {"config": numeric_config(self.rng, n - 2), "jets": jets, "depth": depth}
            )
        # drawn last, so that the configs above do not depend on it
        self.warmup = numeric_config(self.rng, SESSION_NBAR)
        self.sessions = [f"session{k}" for k in range(SESSION_CONFIGS)]
        self.requests = self.sessions + [f"closure_n{n}_depth{d}" for n, d in CLOSURE_REQUESTS]
        self._fresh = {}

    def setup_config(self):
        return self.configs[0]

    def run_pass(self, deadline, trace=False):
        p = Pass()
        job = {"warmup": self.warmup, "configs": self.configs, "closures": self.closures}
        proc = spawn(child_argv("library", trace), deadline, json.dumps(job).encode())
        p.add_proc(proc)
        results, snap, cache, _ = _parse_child(proc, self.requests)
        if snap is not None:
            p.traces.append({"request": "library", "trace": snap, "cache": cache})
        for rid, res in zip(self.requests, results):
            kernel = (res["kernel_s"], res["kernel_cpu_s"]) if "kernel_s" in res else None
            req = Request(
                rid,
                res.get("latency_s", proc.wall),
                res.get("report"),
                res.get("cpu_s", proc.cpu),
                kernel,
            )
            if "error" in res:  # closures are checked in the child
                req.fail(res["error"])
            p.requests.append(req)
        return p

    def fresh_report(self, k, deadline):
        """The report a fresh CLI process emits for config k (cached per run)."""
        if k not in self._fresh:
            proc = spawn(cli_argv(["--config", self.configs[k]]), deadline)
            self._fresh[k] = proc.out if proc.code == 0 else None
        return self._fresh[k]

    def check(self, req, deadline):
        if req.problems or req.id not in self.sessions:
            return
        k = self.sessions.index(req.id)
        sessions = self.reference["sessions"]
        check_report(req, sessions["sha256"][k] if self.seed == sessions["seed"] else None)
        # cache isolation: a warm report equals a fresh process's report
        if k in (0, len(self.sessions) - 1):
            fresh = self.fresh_report(k, deadline)
            if fresh is None:
                req.fail("fresh CLI process for the same config failed")
            elif fresh != req.report:
                req.fail("warm report differs from a fresh process's report")


WORKLOADS = {cls.name: cls for cls in (ColdCli, WarmLibrary)}


def time_setup(workload, deadline, repeats):
    """Times of a fresh interpreter that imports ncresidue and loads the
    workload's config, no computation; each scaled by its process's probe."""
    job = json.dumps({"config": workload.setup_config()}).encode()
    times = []
    for _ in range(repeats):
        proc = spawn(child_argv("setup", False), deadline, job)
        _, _, _, probe = _parse_child(proc, [])
        if probe is None:
            raise RuntimeError(f"setup failed: {proc.err.strip()[-300:]}")
        wall, _, (kernel, _) = process_timing(proc, probe)
        times.append(speed.scaled(wall, kernel))
    return times
