"""Command-line front end.

Loads an optional YAML config, applies flag overrides, runs the selected
computations, and writes the report to stdout.  Exit code 0 unless the
config fails to parse or validate; disagreements with printed closed forms
are findings, not failures.  argparse reads only the argv that _read_argv
declines, so help, usage errors and exit codes stay its own.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .config import CASE_ALIASES, FORMATS, MODES, SessionConfig
from .errors import EngineError, ValidationError
from .report import emit, run_session

# flag: dest, int or the choices (None: any text), help, metavar
_FLAGS = {
    "--dim": ("dim", int, "even boundary dimension (2..10)", None),
    "--case": ("case", (*CASE_ALIASES, "all"),
               "restrict the boundary computation to one case", None),
    "--mode": ("mode", MODES, "density mode", None),
    "--format": ("format", FORMATS, "output format", None),
    "--config": ("config", None, "YAML config file or inline YAML text", None),
    "--verify-lemmas": ("verify_lemmas", int,
                        "run the trace-identity verification with this many trials", "TRIALS"),
    "--seed": ("seed", int, "seed for verification trials", None),
}


def build_parser():
    import argparse  # only for argv that _read_argv declines

    parser = argparse.ArgumentParser(
        prog="ncresidue",
        description="Exact residue-density reports with printed-form audits.",
    )
    for flag, (dest, kind, text, metavar) in _FLAGS.items():
        parser.add_argument(flag, dest=dest, type=kind if kind is int else None,
                            choices=None if kind is int else kind, help=text, metavar=metavar)
    return parser


def _read_argv(argv):
    """parse_args' attributes if argv is distinct `--flag value` pairs, flags
    in full, values valid and not starting with '-'; else None, for argparse."""
    args = dict.fromkeys(spec[0] for spec in _FLAGS.values())
    pairs = dict(zip(argv[::2], argv[1::2]))
    try:
        for flag, value in pairs.items():
            dest, kind, _, _ = _FLAGS[flag]  # KeyError: not a flag in full
            if value.startswith("-") or isinstance(kind, tuple) and value not in kind:
                return None
            args[dest] = int(value) if kind is int else value  # int() may raise
    except (KeyError, ValueError):
        return None
    # an odd count, or a flag given twice, leaves fewer pairs
    return SimpleNamespace(**args) if 2 * len(pairs) == len(argv) else None


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
        from .yamlconfig import read_config  # only a config source loads the reader

        fields = read_config(args.config)
    elif args.dim is None:
        raise ValidationError("dim", "provide --dim or --config")
    fields.update((k, v) for k, v in flags.items() if v is not None)
    return SessionConfig(**fields)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
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
