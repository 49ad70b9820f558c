"""Order statistics and interval arithmetic used by the benchmark."""

from __future__ import annotations

from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between the
    closest ranks, the rule of ``statistics.quantiles(method="inclusive")``."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} out of range 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    end = None
    start = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        elif b > end:
            end = b
    if end is not None:
        total += end - start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    clipped = [(max(a, start), min(b, end)) for a, b in children if b > start and a < end]
    return (end - start) - covered(clipped)
