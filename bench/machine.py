"""A fixed reference computation that gauges the shared machine's current speed.

The benchmark's machine is a few cores of a shared host.  Other tenants
slow it down by up to half, in stretches of tens of seconds to minutes,
with CPU time equal to wall time, so the slowdown is contention, not
stolen time.  A 30 s run often falls inside a single stretch, so no
statistic over one run's calls can remove it.

The kernel below does not touch peakmix: a loop of small-array numpy
arithmetic with interpreter overhead (the shape of a likelihood
evaluation), then passes over arrays larger than the cache.  The
benchmark runs it before the first timed call, after every timed call and
around every set-up probe, and divides each call's time by the slowdown
the two samples around it show.  Over 30 s windows the kernel's median
time followed the median time of peakmix calls with a correlation of
0.75-0.87; the adjustment halved the run-to-run spread of the timings
(see README.md).  A change to peakmix cannot change the kernel's work.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on the 2-core Xeon VM the benchmark was written on,
# in a quiet stretch.  It only sets the scale of the adjusted metrics.
REFERENCE_S = 0.06

_rng = np.random.default_rng(20110808)
_SMALL = [(_rng.random(k) * 0.9 + 0.05, _rng.random((2, k))) for k in (3, 4, 5, 6, 7, 4, 5, 6, 3, 7)]
_GRID = np.linspace(0.005, 0.995, 99)[:, None]
_BIG = _rng.random(1_000_000)


def kernel() -> float:
    """Seconds one pass of the reference computation takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(100):
        for obs, mix in _SMALL:
            mu = _GRID * mix[0] + (1.0 - _GRID) * mix[1]
            z = (obs - mu) / 0.1
            lp = (-0.5 * z * z).sum(axis=1)
            top = lp.max()
            acc += float(top + np.log(np.exp(lp - top).sum()))
    for _ in range(24):
        acc += float(_BIG.sum())
        acc += float(np.sort(_BIG[:60_000])[30_000])
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return time.perf_counter() - t0


def slowdown(before: float, after: float) -> float:
    """How much slower than REFERENCE_S the machine ran between two kernel samples."""
    return (before + after) / (2 * REFERENCE_S)
