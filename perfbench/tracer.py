"""Layer spans for ncresidue, recorded from outside the engine.

The tracer wraps public functions and methods of the engine's modules at
import time of the benchmark child; nothing under ``src/`` is edited.  Every
wrapped call updates its layer's aggregate ``[calls, total_ns, self_ns]``,
where self time is the span's duration minus the time of the wrapped calls
it made.  Coarse spans (sessions, cases, symbol recursions) are also kept in
memory as ``(id, parent, request, name, start_ns, end_ns)`` and written out
when the child ends; hot leaves (polynomial and blade products, millions of
calls) are only aggregated, so memory stays bounded.  Scalar operations are
counted, not timed.
"""

from __future__ import annotations

import sys
import time

# Kept spans per process; the rest are still aggregated, and counted as dropped.
SPAN_LIMIT = 100_000


class Tracer:
    def __init__(self):
        self.stats = {}  # layer name -> [calls, total_ns, self_ns]
        self.counts = {}  # counter name -> int
        self.spans = []
        self.dropped = 0
        self.request = 0
        self._stack = []  # frames: [child_ns, nearest kept span id]
        self._next_id = 1

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def timed(self, name, fn, keep=False, note=None):
        """Wrap fn as a span of layer `name`; note(args, result) adds counts."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if keep:
                sid = self._next_id
                self._next_id += 1
            else:
                sid = parent[1] if parent else 0
            frame = [0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if parent is not None:
                    parent[0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if keep:
                    if len(self.spans) < SPAN_LIMIT:
                        self.spans.append(
                            (sid, parent[1] if parent else 0, self.request, name, t0, t1)
                        )
                    else:
                        self.dropped += 1
            if note is not None:
                note(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def snapshot(self):
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counts": dict(self.counts),
            "spans": [list(s) for s in self.spans],
            "dropped_spans": self.dropped,
        }


def _engine_modules():
    return [
        mod
        for name, mod in sys.modules.items()
        if mod is not None and (name == "ncresidue" or name.startswith("ncresidue."))
    ]


def _patch_function(original, wrapper):
    """Rebind every engine-module name that refers to `original`."""
    found = False
    for mod in _engine_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                found = True
    if not found:
        raise RuntimeError(f"no engine module binds {original!r}")


def _patch_method(cls, attr, make):
    """Rebind `attr` and every alias of it (e.g. __rmul__ = __mul__)."""
    original = vars(cls)[attr]
    wrapper = make(original)
    for name, value in list(vars(cls).items()):
        if value is original:
            setattr(cls, name, wrapper)


def install(tracer):
    """Wrap the engine's layer boundaries; call after importing ncresidue."""
    import ncresidue.cli  # noqa: F401  (bind cli's names before patching)
    from ncresidue import boundary, clifford, config, exact, geometry, halfplane
    from ncresidue import report, symbols

    def fn(module, attr, name, keep=True, note=None):
        original = getattr(module, attr)
        _patch_function(original, tracer.timed(name, original, keep, note))

    def meth(cls, attr, name, keep=False, note=None):
        _patch_method(cls, attr, lambda f: tracer.timed(name, f, keep, note))

    def count(cls, attr, name):
        _patch_method(cls, attr, lambda f: tracer.counted(name, f))

    # config and report
    fn(config, "load_config", "config.load")
    meth(config.SessionConfig, "__init__", "config.load", keep=True)
    fn(ncresidue.cli, "_merge", "config.load")
    fn(report, "run_session", "report.session")
    fn(report, "emit", "report.emit")

    # geometry
    def e_terms(args, result):
        _, e = result
        tracer.add("geometry.E_terms", sum(len(c.terms) for c in e.terms.values()))

    fn(geometry, "trace_E_density", "geometry.trace_E_density")
    fn(geometry, "lichnerowicz_normal_form", "geometry.normal_form")
    fn(geometry, "connection_and_E", "geometry.connection_and_E", note=e_terms)

    # clifford
    def term_pairs(args, result):
        a, b = args
        nb = len(b.terms) if isinstance(b, clifford.CliffordElement) else 1
        tracer.add("clifford.mul.term_pairs", len(a.terms) * nb)

    meth(clifford.CliffordElement, "__mul__", "clifford.mul", note=term_pairs)
    fn(clifford, "spinor_trace", "clifford.trace")
    fn(clifford, "twisted_trace", "clifford.trace")
    meth(clifford.SpinorMatrix, "__mul__", "clifford.matrix_mul")
    fn(clifford, "represent", "clifford.represent", keep=False)
    fn(clifford, "verify_trace_lemmas", "clifford.lemmas")

    # exact
    meth(exact.ParamPoly, "__mul__", "exact.poly_mul")
    meth(exact.ParamPoly, "__add__", "exact.poly_add")
    meth(exact.ParamPoly, "subs", "exact.poly_subs")
    count(exact.Alphabet, "__eq__", "exact.alphabet_eq.calls")
    count(exact.GaussRational, "__mul__", "exact.gauss_mul.calls")
    count(exact.GaussRational, "__add__", "exact.gauss_add.calls")

    # symbols
    def inverse_terms(args, result):
        deepest = result[min(result.orders)]
        tracer.add("symbols.inverse_terms", sum(len(x.terms) for x in deepest.terms.values()))

    fn(symbols, "laplace_symbol", "symbols.laplace")
    fn(symbols, "invert_symbol", "symbols.invert", note=inverse_terms)
    fn(symbols, "compose_symbols", "symbols.compose")
    fn(symbols, "power_symbol", "symbols.power")
    meth(symbols.XiExpr, "__mul__", "symbols.jet_mul")

    # halfplane
    hpr = halfplane.HalfPlaneRational
    meth(hpr, "pi_plus", "halfplane.pi_plus")
    meth(hpr, "partial_fractions", "halfplane.partial_fractions")
    meth(hpr, "real_line_integral", "halfplane.integral")

    # boundary: case bodies run only on a cache miss; assembly every session
    for cid, case_fn in list(boundary._CASE_FN.items()):
        boundary._CASE_FN[cid] = tracer.timed("boundary.case", case_fn, keep=True)
    fn(boundary, "boundary_case", "boundary.assembly")
    fn(boundary, "total_boundary_phi", "boundary.assembly")
    fn(boundary, "wres_with_boundary", "boundary.assembly")


def cache_info():
    """Hits and attempts of the boundary layer's cross-request caches."""
    from ncresidue import boundary

    hits = attempts = 0
    for cached in (boundary._pipeline, boundary._boundary_case_symbolic):
        info = cached.cache_info()
        hits += info.hits
        attempts += info.hits + info.misses
    return {"hits": hits, "attempts": attempts}
