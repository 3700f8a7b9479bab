"""Percentiles and latency summaries."""

from __future__ import annotations

import math
from typing import Iterable, Sequence

#: A latency summary reports the highest percentile with at least this many
#: samples beyond it.
TAIL_SAMPLES = 10


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default); 0.0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    if math.isinf(ordered[high]):
        return ordered[high] if rank > low else ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Iterable[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(n: int) -> float:
    """The highest percentile (to 0.1) with at least ``TAIL_SAMPLES`` samples beyond it."""
    if n <= TAIL_SAMPLES:
        return 50.0
    return max(50.0, math.floor(1000.0 * (1.0 - TAIL_SAMPLES / n)) / 10.0)


def latency_summary(latencies: Sequence[float]) -> dict[str, float]:
    """Median and tail of latencies; a failed request is ``math.inf``.

    A failed or refused request therefore lands beyond every limit: it
    raises the tail and never counts as meeting a latency limit.
    """
    q = tail_percentile(len(latencies))
    return {
        "p50": median(latencies),
        "tail": percentile(latencies, q),
        "tail_q": q,
        "n": len(latencies),
    }


def within_limit(latencies: Iterable[float], limit: float) -> int:
    """How many latencies meet ``limit`` (failed requests, ``inf``, never do)."""
    return sum(1 for latency in latencies if latency <= limit)


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
