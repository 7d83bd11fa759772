"""Percentiles and the tail rule shared by the benchmark's reports."""

from __future__ import annotations

import math


def percentile(values, p: float) -> float:
    """p-th percentile (0..100) with linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int, cap: int = 99) -> int | None:
    """Highest whole percentile with at least ten samples beyond it, at most ``cap``.

    ``None`` when there are ten samples or fewer: no percentile has ten
    samples beyond it, and the tail is reported as the maximum.
    """
    if n <= 10:
        return None
    return min(cap, (100 * (n - 10)) // n)


def tail(values) -> tuple[float, int | None]:
    """(value, percentile) of the tail rule; percentile None means the maximum."""
    p = tail_percentile(len(values))
    if p is None:
        return max(values), None
    return percentile(values, p), p
