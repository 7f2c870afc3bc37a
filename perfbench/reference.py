"""Machine-speed reference for scaling measured times.

On a shared machine the speed of a core drifts by tens of percent over a
minute under load from other tenants, CPU time as much as wall time.  A
fixed reference loop is timed just before and just after each measured
interval, and the interval is reported scaled to the speed at which one
loop takes REFERENCE_S.  The library never runs inside the loop, so a
change to the library moves scaled times as it moves raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy

REFERENCE_S = 2.0e-3
_KEYS = list(range(512))
_MAP = {k: (k * 7919) % 1013 for k in _KEYS}
_ROWS = numpy.arange(256 * 256, dtype=numpy.int64).reshape(256, 256) % 256


def reference_loop() -> float:
    """Interpreter and numpy row-gather work of fixed size, timed.  It
    allocates no objects the garbage collector tracks, so the library's
    heap does not change its cost."""
    start = time.perf_counter()
    acc = 0
    for _ in range(36):
        for k in _KEYS:
            acc += _MAP[k] * 3 % 7
    for a in range(16):
        _ROWS[_ROWS[a]].sum()
    return time.perf_counter() - start


def reference_time() -> float:
    """Median of a few reference loops: the machine's speed right now."""
    return statistics.median(reference_loop() for _ in range(5))


def scaled(seconds: float, before: float, after: float) -> float:
    """An interval measured between two reference timings, in seconds at
    reference speed."""
    return seconds * 2 * REFERENCE_S / (before + after)
