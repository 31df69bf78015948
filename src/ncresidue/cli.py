"""Command-line front end.

Loads an optional YAML config, applies flag overrides, runs the selected
computations, and writes the report to stdout.  Exit code 0 unless the
config fails to parse or validate; disagreements with printed closed forms
are findings, not failures.
"""

from __future__ import annotations

import argparse
import sys

from .config import CASE_ALIASES, FORMATS, MODES, SessionConfig, read_config
from .errors import EngineError, ValidationError
from .report import emit, run_session


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncresidue",
        description="Exact residue-density reports with printed-form audits.",
    )
    parser.add_argument("--dim", type=int, help="even boundary dimension (2..10)")
    parser.add_argument(
        "--case",
        choices=[*CASE_ALIASES, "all"],
        help="restrict the boundary computation to one case",
    )
    parser.add_argument("--mode", choices=MODES, help="density mode")
    parser.add_argument("--format", choices=FORMATS, help="output format")
    parser.add_argument("--config", help="YAML config file or inline YAML text")
    parser.add_argument(
        "--verify-lemmas",
        type=int,
        metavar="TRIALS",
        help="run the trace-identity verification with this many trials",
    )
    parser.add_argument("--seed", type=int, help="seed for verification trials")
    return parser


def _merge(args):
    """SessionConfig from the flags that were given, laid over the config."""
    flags = {
        "nbar": args.dim,
        "mode": args.mode,
        "cases": [args.case] if args.case else None,
        "fmt": args.format,
        "seed": args.seed,
        "verify_lemmas": args.verify_lemmas,
    }
    fields = {}
    if args.config is not None:
        fields = read_config(args.config)
    elif args.dim is None:
        raise ValidationError("dim", "provide --dim or --config")
    fields.update((k, v) for k, v in flags.items() if v is not None)
    return SessionConfig(**fields)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge(args)
    except EngineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    report = run_session(cfg)
    sys.stdout.write(emit(report, cfg.fmt))
    return 0


if __name__ == "__main__":
    sys.exit(main())
