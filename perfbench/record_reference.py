"""Record the reference outputs that every benchmark run checks against.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose reports are known to be right.  It
writes perfbench/reference.json: the sha256 of every report that
fixed-input requests emit (CLI reports at nbar 2..10; the lemma audits and
numeric sessions under the default seed) and the printed-status pattern of
the trace-identity records.  Re-record only when a report is meant to change.
"""

from __future__ import annotations

import json
import sys

import bench


def checked(requests):
    for req in requests:
        bench.check_report(req)
        if req.problems:
            raise SystemExit(f"{req.id}: {req.problems}")
    return requests


def main():
    if not bench.engine_present():
        print(f"error: no engine sources under {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(bench.SRC))
    deadline = bench.Deadline(900)
    seed = bench.DEFAULT_SEED

    reports = {}
    for d in bench.REFERENCE_DIMS:
        req = bench.Request(f"report_dim{d}", 0.0)
        req.report = bench.spawn(bench.cli_argv(bench.report_args(d)), deadline).out
        reports[str(d)] = bench.sha256(checked([req])[0].report)

    cold = bench.ColdCli(seed, {})
    cold.requests = [r for r in cold.requests if r[0].startswith("lemma_")]
    lemmas = {"seed": seed, "sha256": {}, "printed_status": {}}
    for req in checked(cold.run_pass(deadline).requests):
        dim = req.id.split("_dim")[1]
        lemmas["sha256"][dim] = bench.sha256(req.report)
        lemmas["printed_status"][dim] = {
            rec["id"]: rec["printed"]
            for rec in json.loads(req.report)["records"]
            if rec["id"].startswith("trace_identity/")
        }

    warm = bench.WarmLibrary(seed, {})
    sessions = [r for r in warm.run_pass(deadline).requests if r.id in warm.sessions]
    reference = {
        "reports": reports,
        "lemmas": lemmas,
        "sessions": {"seed": seed, "sha256": [bench.sha256(r.report) for r in checked(sessions)]},
    }
    with open(bench.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
