"""Percentiles and spreads.

Latency percentiles use the nearest-rank rule: the ``q``-th percentile
of ``n`` samples is the ``ceil(q / 100 * n)``-th smallest.  A percentile
is only reported when at least :data:`MIN_BEYOND` samples lie beyond it;
fewer would make it a reading of a handful of outliers, not a tail.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: samples that must lie strictly beyond a reported percentile
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples."""
    if n < 1:
        raise ValueError("no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    return max(1, math.ceil(q / 100.0 * n))


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond the ``q``-th percentile's rank."""
    return n - rank(n, q)


def min_samples(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Fewest samples that leave ``min_beyond`` beyond the ``q``-th percentile."""
    n = 1
    while beyond(n, q) < min_beyond:
        n += 1
    return n


def percentile(samples: Sequence[float], q: float, min_beyond: int = 0) -> float:
    """Nearest-rank percentile; raises if fewer than ``min_beyond``
    samples lie beyond it."""
    n = len(samples)
    if beyond(n, q) < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples leaves {beyond(n, q)} beyond it, "
            f"need {min_beyond}"
        )
    return sorted(samples)[rank(n, q) - 1]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as Python's
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf
