"""Summary statistics shared by the benchmark's run and worker processes."""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail figure may be reported at, lowest first.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(list(values)))


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ``MIN_BEYOND`` of ``n``
    samples strictly beyond it (None when not even the median has)."""
    supported = None
    for p in TAIL_PERCENTILES:
        # In tenths of a percent, so 99.9 is exact.
        if n * (1000 - round(p * 10)) >= MIN_BEYOND * 1000:
            supported = p
    return supported


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(round(len(ordered) * p / 100.0, 9)))
    return float(ordered[rank - 1])

