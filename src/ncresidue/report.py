"""Report assembly and emission.

A Report is an ordered list of flat records plus session metadata.  Records
carry exact values rendered losslessly as strings; agreement flags compare
the engine's value with the printed closed form where one exists.  Identical
configs produce byte-identical output in every format.
"""

from __future__ import annotations

import hashlib
import io
import json

from . import __version__
from .boundary import bracket_table, extrinsic_K, wres_with_boundary
from .errors import EngineError
from .geometry import trace_density_report


class Report:
    """Ordered records plus metadata; equality is structural."""

    __slots__ = ("records", "metadata")

    def __init__(self, records, metadata):
        self.records = list(records)
        self.metadata = dict(metadata)

    def __eq__(self, other):
        if not isinstance(other, Report):
            return NotImplemented
        return self.records == other.records and self.metadata == other.metadata

    def __repr__(self):
        return f"Report({len(self.records)} records)"


def _record(rec_id, value="", printed="", agree=None, note="", trace=None):
    rec = {
        "id": rec_id,
        "value": str(value),
        "printed": str(printed),
        "agree": agree,
        "note": note,
    }
    if trace is not None:
        rec["trace"] = [dict(step) for step in trace]
    return rec


def _config_hash(cfg_dict):
    blob = json.dumps(cfg_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run_session(cfg):
    """Execute the quantities selected by a SessionConfig.

    Engine errors in one quantity become error records; the session
    continues with the remaining quantities.
    """
    records = []
    n = cfg.nbar + 2

    def guarded(rec_id, fn):
        try:
            fn()
        except EngineError as exc:
            records.append(
                _record(rec_id, note=f"error: {type(exc).__name__}: {exc}")
            )

    if cfg.verify_lemmas:
        from .oracle import verify_trace_lemmas

        def add_lemmas():
            for rec in verify_trace_lemmas(n, cfg.verify_lemmas, cfg.seed):
                records.append(
                    _record(
                        f"trace_identity/{rec['identity']}",
                        value=rec["status"],
                        printed=rec["printed_status"],
                        agree=rec["status"] == "pass"
                        and rec["printed_status"] == "pass",
                        note=rec["counterexample"] or "",
                    )
                )
        guarded("trace_identity", add_lemmas)

    def add_interior():
        geo = cfg.bundle()
        w = wres_with_boundary(cfg.nbar, geo, cfg.mode)
        interior = w["interior"]
        records.append(
            _record(
                "interior_density",
                value=interior["density"],
                note=f"prefactor {interior['prefactor']} * pi^{interior['pi_power']}",
            )
        )
        phi = w["boundary"]
        records.append(
            _record(
                "boundary_phi",
                value=phi["value"],
                note="coefficient of pi; VolS symbolic",
            )
        )
        records.append(_record("boundary_phi_hprime_part", value=phi["hprime_part"]))
        records.append(_record("boundary_phi_drift_part", value=phi["drift_part"]))
        records.append(
            _record(
                "wres_K_coefficient",
                value=w["groupings"]["K_coefficient"],
                printed=w["groupings"]["K_coefficient_printed"],
                agree=w["groupings"]["K_coefficient"]
                == w["groupings"]["K_coefficient_printed"],
            )
        )
        for cid in cfg.cases:
            res = phi["cases"][cid]
            total_cmp = next(
                c for c in res.comparisons if c["term"].endswith("_total")
            )
            records.append(
                _record(
                    f"boundary_case/{cid}",
                    value=res.value,
                    printed=res.printed,
                    agree=total_cmp["agree"],
                    trace=res.derivation_trace,
                )
            )
        for cmp_rec in w["comparisons"]:
            records.append(
                _record(
                    f"comparison/{cmp_rec['term']}",
                    value=cmp_rec["engine"],
                    printed=cmp_rec["printed"],
                    agree=cmp_rec["agree"],
                    note=cmp_rec.get("note", ""),
                )
            )
    guarded("boundary", add_interior)

    guarded(
        "extrinsic_K",
        lambda: records.append(_record("extrinsic_K", value=extrinsic_K(cfg.nbar))),
    )

    def add_density_report():
        for rec in trace_density_report(n):
            records.append(
                _record(
                    f"trace_density/{rec['term']}",
                    value=rec["oracle"],
                    printed=rec["printed"],
                    agree=rec["agree"],
                )
            )
    guarded("trace_density", add_density_report)

    def add_brackets():
        for rec in bracket_table():
            records.append(
                _record(
                    f"bracket/{rec['term']}",
                    value=rec["engine"],
                    printed=rec["printed"],
                    agree=rec["agree"],
                )
            )
    guarded("bracket_table", add_brackets)

    cfg_dict = cfg.as_dict()
    metadata = {
        "engine_version": __version__,
        "seed": cfg.seed,
        "mode": cfg.mode,
        "nbar": cfg.nbar,
        "config": cfg_dict,
        "config_hash": _config_hash(cfg_dict),
    }
    return Report(records, metadata)


def _agree_text(agree):
    if agree is None:
        return ""
    return "match" if agree else "differs"


def emit(report, fmt="text"):
    """Render a report as text, JSON, or CSV (UTF-8 string)."""
    if fmt == "json":
        return json.dumps(
            {"metadata": report.metadata, "records": report.records},
            sort_keys=True,
            indent=2,
            ensure_ascii=False,
        )
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["id", "value", "printed", "agree", "note"])
        for rec in report.records:
            writer.writerow(
                [
                    rec["id"],
                    rec["value"],
                    rec["printed"],
                    _agree_text(rec["agree"]),
                    rec["note"],
                ]
            )
        return buf.getvalue()
    if fmt == "text":
        headers = ("id", "value", "printed", "agree")
        rows = [
            (
                rec["id"],
                rec["value"],
                rec["printed"],
                _agree_text(rec["agree"]),
            )
            for rec in report.records
        ]
        widths = [
            max(len(h), *(len(r[k]) for r in rows)) if rows else len(h)
            for k, h in enumerate(headers)
        ]
        lines = [
            "  ".join(h.ljust(widths[k]) for k, h in enumerate(headers)).rstrip(),
            "  ".join("-" * widths[k] for k in range(len(headers))),
        ]
        for r in rows:
            lines.append(
                "  ".join(r[k].ljust(widths[k]) for k in range(len(headers))).rstrip()
            )
        meta = report.metadata
        lines.append("")
        lines.append(
            f"engine {meta['engine_version']}  nbar={meta['nbar']}  "
            f"mode={meta['mode']}  seed={meta['seed']}  "
            f"config={meta['config_hash'][:12]}"
        )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def parse_report_json(text):
    """Inverse of emit(report, 'json')."""
    data = json.loads(text)
    return Report(data["records"], data["metadata"])
