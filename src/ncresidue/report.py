"""Report assembly and emission.

A Report is an ordered list of flat records plus session metadata.  Records
carry exact values rendered losslessly as strings; agreement flags compare
the engine's value with the printed closed form where one exists.  Identical
configs produce byte-identical output in every format.

Every record but the four that read point data (the interior density and
boundary phi with its two parts) reads nbar alone.  The first session at an
nbar keeps a private copy of each such record, and the JSON emitter renders
its text once and reuses it for any record that still equals the copy; a
warm session's JSON encodes only its point-data records and its metadata.
"""

from __future__ import annotations

import hashlib
import io
import json
from functools import lru_cache
from types import MappingProxyType

from . import __version__
from .boundary import bracket_table, wres_with_boundary
from .config import FORMATS
from .errors import EngineError, ParseError, ValidationError
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
    try:
        value, printed = str(value), str(printed)
    except ValueError:  # products of accepted point data can outgrow the limit
        raise EngineError(
            f"{rec_id}: too many digits: past Python's int-string conversion limit"
        ) from None
    rec = {
        "id": rec_id,
        "value": value,
        "printed": printed,
        "agree": agree,
        "note": note,
    }
    if trace is not None:
        rec["trace"] = [dict(step) for step in trace]
    return rec


def _config_hash(cfg_dict):
    blob = json.dumps(cfg_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# (nbar, id) -> [record, JSON text]: a private copy of each record that reads
# nbar alone, kept from the first session at nbar, and its text once emit has
# rendered it
_kept = {}


def _nbar_only(nbar, *args):
    """_record(*args) for a record that reads nbar alone; the first one at
    each (nbar, id) is also kept, as a private copy, for emit."""
    if (nbar, args[0]) not in _kept:
        _kept[nbar, args[0]] = [_record(*args), None]
    return _record(*args)


def _compared(nbar, prefix, rows, value="engine"):
    """Records of a producer's rows: term, value, printed form, agree flag."""
    for row in rows:
        yield _nbar_only(nbar, f"{prefix}/{row['term']}", row[value], row["printed"],
                         row["agree"], row.get("note", ""))


def _lemma_records(cfg):
    from .oracle import verify_trace_lemmas  # only an audit loads the oracle

    for rec in verify_trace_lemmas(cfg.nbar + 2, cfg.verify_lemmas, cfg.seed):
        status, printed = rec["status"], rec["printed_status"]
        yield _record(f"trace_identity/{rec['identity']}", status, printed,
                      status == printed == "pass", rec["counterexample"] or "")


@lru_cache(maxsize=None)
def _nbar_records(nbar):
    """The _record arguments of each record that reads nbar alone, by id:
    the K coefficient, the five boundary cases and extrinsic_K, rendered
    once per process from the shared symbolic values."""
    w = wres_with_boundary(nbar)
    groups, cases = w["groupings"], w["boundary"]["cases"]
    k, printed_k = groups["K_coefficient"], groups["K_coefficient_printed"]
    rows = {"wres_K_coefficient": ("wres_K_coefficient", str(k), str(printed_k),
                                   k == printed_k),
            "extrinsic_K": ("extrinsic_K", str(groups["extrinsic_K"]))}
    for cid, res in cases.items():
        total = next(c for c in res.comparisons if c["term"].endswith("_total"))
        rows[cid] = (f"boundary_case/{cid}", str(res.value), str(res.printed),
                     total["agree"], "", res.derivation_trace)
    return MappingProxyType(rows)


def _boundary_records(cfg):
    w = wres_with_boundary(cfg.nbar, cfg.bundle(), cfg.mode)
    interior, phi = w["interior"], w["boundary"]
    note = f"prefactor {interior['prefactor']} * pi^{interior['pi_power']}"
    yield _record("interior_density", interior["density"], note=note)
    yield _record("boundary_phi", phi["value"], note="coefficient of pi; VolS symbolic")
    yield _record("boundary_phi_hprime_part", phi["hprime_part"])
    yield _record("boundary_phi_drift_part", phi["drift_part"])
    fixed = _nbar_records(cfg.nbar)
    yield _nbar_only(cfg.nbar, *fixed["wres_K_coefficient"])
    for cid in cfg.cases:
        yield _nbar_only(cfg.nbar, *fixed[cid])
    yield from _compared(cfg.nbar, "comparison", w["comparisons"])


def run_session(cfg):
    """Execute the quantities selected by a SessionConfig.

    Each block is an error-record id and a record generator.  An engine
    error in one block keeps the records it yielded, adds its error record,
    and the session continues with the remaining blocks.
    """
    blocks = [
        ("boundary", lambda: _boundary_records(cfg)),
        ("extrinsic_K",
         lambda: [_nbar_only(cfg.nbar, *_nbar_records(cfg.nbar)["extrinsic_K"])]),
        ("trace_density", lambda: _compared(
            cfg.nbar, "trace_density", trace_density_report(cfg.nbar + 2), "oracle")),
        ("bracket_table", lambda: _compared(cfg.nbar, "bracket", bracket_table())),
    ]
    if cfg.verify_lemmas:
        blocks.insert(0, ("trace_identity", lambda: _lemma_records(cfg)))
    records = []
    for rec_id, make in blocks:
        try:
            records.extend(make())
        except EngineError as exc:
            records.append(_record(rec_id, note=f"error: {type(exc).__name__}: {exc}"))

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
    """Render a report as text, JSON, or CSV (UTF-8 string).  JSON reuses
    kept record texts and never computes an engine value: a report at an
    nbar that had no session in this process is encoded in full."""
    if fmt not in FORMATS:
        raise ValidationError("format", f"expected one of {FORMATS}, got {fmt!r}")
    if fmt == "json":
        return _json(report)
    headers = ("id", "value", "printed", "agree", "note")
    rows = [(rec["id"], rec["value"], rec["printed"], _agree_text(rec["agree"]),
             rec["note"]) for rec in report.records]
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([headers, *rows])
        return buf.getvalue()
    cols = range(len(headers) - 1)  # the text table leaves out the note
    widths = [max([len(headers[k]), *(len(r[k]) for r in rows)]) for k in cols]
    lines = [
        "  ".join(headers[k].ljust(widths[k]) for k in cols).rstrip(),
        "  ".join("-" * widths[k] for k in cols),
    ]
    for r in rows:
        lines.append("  ".join(r[k].ljust(widths[k]) for k in cols).rstrip())
    meta = report.metadata
    lines.append("")
    lines.append(
        f"engine {meta['engine_version']}  nbar={meta['nbar']}  "
        f"mode={meta['mode']}  seed={meta['seed']}  "
        f"config={meta['config_hash'][:12]}"
    )
    return "\n".join(lines) + "\n"


_encode = json.JSONEncoder(sort_keys=True, indent=2, ensure_ascii=False).encode


def _indented(value, indent):
    """JSON of value as the envelope writes it at this indent."""
    return _encode(value).replace("\n", "\n" + indent)


def _json(report):
    """json.dumps({"metadata": ..., "records": ...}, sort_keys=True, indent=2,
    ensure_ascii=False), written piece by piece: a record that equals a kept
    one at the metadata's nbar reuses its text, every other one is encoded."""
    nbar, texts = report.metadata.get("nbar"), []
    for rec in report.records:
        try:
            kept = _kept[nbar, rec["id"]]
        except (KeyError, TypeError):  # not a kept id, or not a mapping
            kept = None
        # == holds for True == 1; the flag must be the same object to share
        if kept is None or rec != kept[0] or rec["agree"] is not kept[0]["agree"]:
            texts.append(_indented(rec, "    "))
            continue
        if kept[1] is None:
            kept[1] = _indented(kept[0], "    ")
        texts.append(kept[1])
    records = "[\n    " + ",\n    ".join(texts) + "\n  ]" if texts else "[]"
    return (f'{{\n  "metadata": {_indented(report.metadata, "  ")},\n'
            f'  "records": {records}\n}}')


def parse_report_json(text):
    """Inverse of emit(report, 'json'); ParseError for text that is not one."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an int past the digit limit
        raise ParseError(f"report is not JSON: {exc}") from None
    if not (isinstance(data, dict) and isinstance(data.get("records"), list)
            and isinstance(data.get("metadata"), dict)):
        raise ParseError("report must be an object with a records list and a metadata object")
    return Report(data["records"], data["metadata"])
