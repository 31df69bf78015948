"""Exact engine for Clifford traces, half-plane residue calculus, and
boundary symbol expansions."""

__version__ = "0.1.0"

from .exact import Alphabet, GaussRational, ParamPoly  # noqa: E402
from .clifford import CliffordElement, twisted_trace  # noqa: E402
from .halfplane import HalfPlaneRational, deriv_at_i  # noqa: E402
from .symbols import (  # noqa: E402
    SymbolExpansion,
    compose_symbols,
    invert_symbol,
    laplace_symbol,
    power_symbol,
)
from .geometry import (  # noqa: E402
    GeometricBundle,
    interior_wres,
    standard_alphabet,
    trace_E_density,
    trace_density_report,
)
from .boundary import (  # noqa: E402
    boundary_case,
    enumerate_cases,
    extrinsic_K,
    total_boundary_phi,
    wres_with_boundary,
)
from .config import SessionConfig, load_config  # noqa: E402
from .report import Report, emit, parse_report_json, run_session  # noqa: E402

__all__ = [
    "Alphabet",
    "GaussRational",
    "ParamPoly",
    "CliffordElement",
    "spinor_trace",
    "twisted_trace",
    "verify_trace_lemmas",
    "HalfPlaneRational",
    "deriv_at_i",
    "SymbolExpansion",
    "compose_symbols",
    "invert_symbol",
    "laplace_symbol",
    "power_symbol",
    "GeometricBundle",
    "interior_wres",
    "standard_alphabet",
    "trace_E_density",
    "trace_density_report",
    "boundary_case",
    "enumerate_cases",
    "extrinsic_K",
    "total_boundary_phi",
    "wres_with_boundary",
    "SessionConfig",
    "load_config",
    "Report",
    "emit",
    "parse_report_json",
    "run_session",
    "__version__",
]


def __getattr__(name):
    # the lemma audit and spinor_trace load the oracle on first use (PEP 562)
    if name in ("spinor_trace", "verify_trace_lemmas"):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
