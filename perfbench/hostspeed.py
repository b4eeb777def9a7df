"""Host speed, so that reported times do not move with the host's load.

The benchmark runs on a share of a machine whose other tenants slow pure
Python by up to a factor of two, in bursts that last from seconds to
minutes; no statistic over one run's passes removes that.  The probe is a
fixed piece of standard-library Python that never calls clhavoc.  Timed just
before and just after an instance, it gives the host's speed while the
instance ran, and `scale` turns the instance's measured time into the time
it takes on a host where the probe takes `REFERENCE_S`.  A change to
clhavoc cannot change the probe, so it moves the scaled times as it moves
the measured ones.
"""

from __future__ import annotations

import gc
import time

# About the probe's fastest time on one 2.1 GHz Xeon vCPU (Python 3.11).
REFERENCE_S = 0.012
REPEATS = 3


def _work() -> int:
    """Dict, tuple, string, sort and frozenset work, like clhavoc's own."""
    counts: dict = {}
    for i in range(8000):
        key = (i % 97, "v%d" % (i % 311))
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    return len({frozenset((a, b)) for (a, b), _ in ranked})


def probe() -> float:
    """Fastest of `REPEATS` timings of the fixed work, in seconds.

    The collector is off while it runs, so the size of the program's heap
    does not slow the probe.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            _work()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
