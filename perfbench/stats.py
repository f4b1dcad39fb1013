"""Percentiles the benchmark is allowed to report."""

from __future__ import annotations

import math

#: A percentile is reported only when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def supported_percentile(samples, q: float, min_beyond: int = MIN_BEYOND):
    """Nearest-rank ``q``-quantile of ``samples``, or ``None`` when fewer
    than ``min_beyond`` samples lie strictly beyond its rank.

    With ``n`` samples the nearest rank is ``ceil(q * n)`` (1-based), so
    ``n - rank`` samples lie beyond it: the median needs at least 20
    samples, p95 at least 200, p99 at least 1000.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < min_beyond:
        return None
    return values[rank - 1]


def median(samples):
    """Plain median (used where the ten-beyond rule is not asked for)."""
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return None
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2
