"""Host-speed probe: a fixed kernel timed just before and after each request.

The 2-core VM this benchmark was tuned on shares its cores with other
tenants, and its speed for the engine's kind of work (exact rational
arithmetic in dicts) moves by 30-60% for seconds to minutes at a time.  A
fixed kernel of the same kind, run in the request's own process right
before and after it, slows with it; the benchmark reports each request's
time scaled by REFERENCE_S over the kernel's time, that is, in seconds of a
host on which the kernel takes REFERENCE_S.  (Run in another process, the
kernel tracked the request's speed worse than no scaling at all.)  The
kernel imports nothing from the engine, so a change to the engine moves
the scaled times in full.

The kernel is frozen: changing it, or REFERENCE_S, changes every reported
time, and results before and after such a change cannot be compared.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

# Kernel time on a quiet 2-core Xeon VM (Python 3.11), the unit of the
# scaled times.
REFERENCE_S = 0.05


def _kernel():
    """Sparse polynomial products over Fraction, merged in dicts."""
    rng = random.Random(1)

    def poly():
        return {
            tuple(rng.randrange(4) for _ in range(6)): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(60)
        }

    a, b = poly(), poly()
    for _ in range(3):
        out = {}
        for ka, va in a.items():
            for kb, vb in b.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                out[k] = out.get(k, 0) + va * vb
    return out


def kernel_time():
    """Wall and CPU seconds of one run of the kernel in this process."""
    t0, c0 = time.perf_counter(), time.process_time()
    _kernel()
    return time.perf_counter() - t0, time.process_time() - c0


def scaled(seconds, kernel_seconds):
    """seconds, in seconds of a host on which the kernel takes REFERENCE_S."""
    return seconds * REFERENCE_S / kernel_seconds


class Probe:
    """Kernel runs between consecutive requests of one process."""

    def __init__(self):
        self.last = kernel_time()

    def after_request(self):
        """Mean (wall, cpu) of the kernel runs just before and just after."""
        now = kernel_time()
        mean = ((self.last[0] + now[0]) / 2, (self.last[1] + now[1]) / 2)
        self.last = now
        return mean
