"""Summary statistics used by the benchmark (plain Python, no ``repro``)."""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, beyond)``: with ``n`` samples the
    reported sample is the one at rank ``n - TAIL_BEYOND`` (nearest-rank),
    so exactly ``TAIL_BEYOND`` samples are larger-ranked.  A tail never
    reads below the median: with fewer than ``2 * TAIL_BEYOND`` samples
    the median is reported, with the samples that lie above it.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of no samples")
    rank = n - TAIL_BEYOND
    if rank < n / 2:
        return statistics.median(values), 50.0, n // 2
    return sorted(values)[rank - 1], 100.0 * rank / n, TAIL_BEYOND


def median(values: list[float]) -> float:
    return statistics.median(values)


def geomean(values: list[float]) -> float:
    if not values or any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(v) for v in values) / len(values))

