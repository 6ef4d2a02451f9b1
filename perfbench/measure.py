"""Timing statistics, the host reference probe and peak memory.

Nothing here imports the program under test.
"""

from __future__ import annotations

import gc
import math
import resource
from time import perf_counter

import numpy

#: Percentiles tried, highest first, when reporting a tail.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
#: A tail percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def median(values) -> float:
    return float(numpy.median(numpy.asarray(values, dtype=float)))


def tail(values) -> tuple[str, float, int]:
    """``(label, value, samples beyond)`` for the highest percentile of
    :data:`TAIL_LADDER` that has at least :data:`MIN_BEYOND` samples above
    it; ``("max", max, 0)`` when the run has too few samples for any."""
    ordered = numpy.sort(numpy.asarray(values, dtype=float))
    n = len(ordered)
    for q in TAIL_LADDER:
        index = max(0, math.ceil(q / 100.0 * n) - 1)
        beyond = n - 1 - index
        if beyond >= MIN_BEYOND:
            return f"p{q:g}", float(ordered[index]), beyond
    return "max", float(ordered[-1]), 0


def host_ref_ms(rounds: int = 5) -> float:
    """Median wall time of a fixed, allocation-heavy loop owned by the
    benchmark.

    It touches nothing of the program, and the garbage collector is off
    while it runs, so that its time does not depend on how large the
    program's heap is: a change in it between two sets of runs points at
    the host (a speed phase), not at the code.
    """
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            started = perf_counter()
            rows = [(i % 97, str(i), [i, i + 1]) for i in range(20_000)]
            index = {row[1]: row for row in rows}
            rows.sort(key=lambda row: (row[0], row[1]))
            if len(index) != len(rows):  # keeps the work observable
                raise RuntimeError("host probe lost rows")
            times.append((perf_counter() - started) * 1000.0)
    finally:
        if collecting:
            gc.enable()
    return median(times)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
