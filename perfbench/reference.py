"""Contention-normalized timing.

On a shared 2-vCPU machine the same code runs 15-25% slower or faster from
one minute to the next (measured: the median unit time of ten 10-second runs
spread by 10-24% between quartiles), which no run length averages away.  A
fixed reference kernel, independent of the library, runs between units at
least every ``PERIOD_S``; its slowdown around each unit divides out:

    normalized time = wall time * REF_MS / median(the NEAREST kernel times)

Normalized times read as milliseconds on a machine where the kernel takes
``REF_MS``.  The speed of this machine changes on a 10-100 ms scale, so the
nearest kernel times track it better than a median over fixed windows (of
1 or 4 s), above all for p90.  A change to the library does not touch the
kernel, so its effect on unit time passes through unchanged.
"""

import bisect
import cmath
import math
import statistics
import time

# Typical times of one call of each kernel on the machine the benchmark was
# defined on (a shared 2-vCPU Intel Xeon VM); they only set the scale.
REF_MS = 0.4
SCALAR_REF_MS = 0.19
PERIOD_S = 0.02
NEAREST = 9


def scalar_kernel() -> complex:
    """Fixed pure-Python work: a complex q-series loop.  It needs no numpy,
    so it can time set-up before the run imports numpy."""
    tau = 0.3 + 1.1j
    acc = 0j
    for m in range(1, 400):
        acc += cmath.exp(1j * math.pi * (m % 13) * tau) * (m % 7)
    return acc


def kernel() -> complex:
    """Fixed work resembling the library's: the scalar loop and small numpy
    array arithmetic."""
    import numpy as np

    grid = np.linspace(0.0, 0.5, 257)
    acc = scalar_kernel()
    for k in range(12):
        acc += np.sum(np.cos(2 * math.pi * k * grid) * np.exp(-k * grid))
    return acc


def time_kernel(fn=kernel) -> float:
    """Seconds of one call, after an untimed call that refills the caches
    the preceding unit evicted, so that the time tracks the machine and not
    the library's memory footprint."""
    fn()
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def factor(samples: list, ref_ms: float = REF_MS) -> float:
    """The normalizing factor for a set of kernel times (seconds)."""
    return ref_ms / 1e3 / statistics.median(samples)


def local_factors(unit_starts: list, refs: list) -> list:
    """Per unit, the factor of the NEAREST kernel timings closest in time.

    ``unit_starts`` are unit start offsets and ``refs`` (offset, seconds)
    kernel timings of the same loop, both in time order.
    """
    offsets = [offset for offset, _ in refs]
    seconds = [s for _, s in refs]
    n = min(NEAREST, len(refs))
    factors = []
    for start in unit_starts:
        lo = min(max(bisect.bisect_left(offsets, start) - n // 2, 0),
                 len(refs) - n)
        factors.append(factor(seconds[lo:lo + n]))
    return factors
