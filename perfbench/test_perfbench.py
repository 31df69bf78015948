"""Tests of the benchmark itself (not part of the engine's tier-1 suite).

    python3 -m pytest -q perfbench

They spawn the engine from the checkout's ``src``; the whole file takes
under a minute on a 2-core machine, most of it the nbar=10 reference report.
"""

import json

import pytest

import bench
import run
import speed


@pytest.fixture(autouse=True)
def engine_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(bench.SRC))


def traced_counts(mode, job):
    """Every count the traced run reports, from one traced child."""
    proc = bench.spawn(bench.child_argv(mode, True), bench.Deadline(), json.dumps(job).encode())
    assert proc.code == 0, proc.err
    out = json.loads(proc.out)
    trace = out["trace"]
    calls = {layer: stat[0] for layer, stat in trace["stats"].items()}
    return {"calls": calls, "counts": trace["counts"], "cache": out["cache"]}


def small_library_job():
    warm = bench.WarmLibrary(1, {})
    return {
        "warmup": warm.warmup,
        "configs": warm.configs[:2],
        "closures": [dict(warm.closures[0], depth=2)],
    }


@pytest.mark.parametrize("mode", ["cli", "library"])
def test_traced_counts_repeat_exactly(mode):
    if mode == "cli":
        job = {"argv": ["--dim", "2", "--format", "json", "--verify-lemmas", "2", "--seed", "1"]}
    else:
        job = small_library_job()
    first = traced_counts(mode, job)
    assert first["calls"]["exact.poly_mul"] > 0
    assert first["counts"]["symbols.inverse_terms"] > 0
    assert first == traced_counts(mode, job)


def cold_report_dim2(reference):
    workload = bench.ColdCli(0, reference)
    workload.requests = [("report_dim2", bench.report_args(2))]
    deadline = bench.Deadline()
    (req,) = workload.run_pass(deadline).requests
    workload.check(req, deadline)
    return req


def test_reference_hash_is_checked():
    good = bench.load_reference()
    assert cold_report_dim2(good).problems == []
    corrupted = dict(good, reports=dict(good["reports"], **{"2": "0" * 64}))
    assert cold_report_dim2(corrupted).problems == ["report sha256 differs from the reference"]


@pytest.mark.parametrize("dim", [d for d in bench.REFERENCE_DIMS if d not in bench.REPORT_DIMS])
def test_untimed_reports_match_reference(dim):
    deadline = bench.Deadline()
    req = bench.Request(f"dim{dim}", 0.0)
    req.report = bench.spawn(bench.cli_argv(bench.report_args(dim)), deadline).out
    bench.check_report(req, bench.load_reference()["reports"][str(dim)])
    assert req.problems == []


def test_cache_isolation_check_catches_a_difference():
    workload = bench.WarmLibrary(1, bench.load_reference())
    deadline = bench.Deadline()
    fresh = workload.fresh_report(0, deadline)
    req = bench.Request("session0", 0.0, fresh)
    workload.check(req, deadline)
    assert req.problems == []
    workload._fresh[0] = fresh.replace('"agree": true', '"agree": false', 1)
    req = bench.Request("session0", 0.0, fresh)
    workload.check(req, deadline)
    assert req.problems == ["warm report differs from a fresh process's report"]


def test_times_are_scaled_by_the_probe_and_take_medians():
    ref = speed.REFERENCE_S
    passes = []
    for latency, kernel in ((2.0, 2 * ref), (3.0, ref), (9.0, 3 * ref)):
        p = bench.Pass()
        p.requests = [bench.Request("a", latency, cpu=latency, kernel=(kernel, kernel))]
        passes.append(p)
    # scaled: 1.0, 3.0 and 3.0
    assert run.per_request(passes) == [pytest.approx((3.0, 3.0))]


def test_refuses_to_run_without_engine(monkeypatch, capsys):
    monkeypatch.setattr(bench, "SRC", bench.ROOT / "no-such-dir")
    assert run.main(["--workload", "cold_cli", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_lists_the_reported_metrics():
    with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in run.per_layer_spec().items()
    }
