"""Measurement utilities used by experiments and platform telemetry.

``LatencyRecorder`` accumulates scalar samples and reports order
statistics; :func:`percentile` and :func:`relative_variance` are the
statistics themselves.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import Iterable

__all__ = ["LatencyRecorder", "percentile", "relative_variance"]


def percentile(sorted_samples: list[float], q: float) -> float:
    """Return the ``q``-th percentile (0..100) by linear interpolation.

    ``sorted_samples`` must be sorted ascending.  An empty sample set
    has no order statistics: the result is ``nan`` (which
    :func:`~repro.experiments.common.fmt` renders as ``-``), so an
    experiment arm that produced no completions reports an honest blank
    instead of crashing the whole run at the reporting step.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} out of range")
    if not sorted_samples:
        return float("nan")
    if len(sorted_samples) == 1:
        return sorted_samples[0]
    rank = (q / 100.0) * (len(sorted_samples) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return sorted_samples[low]
    fraction = rank - low
    return sorted_samples[low] * (1 - fraction) + sorted_samples[high] * fraction


def relative_variance(samples: Iterable[float]) -> float:
    """Variance divided by squared mean, as a percentage.

    This matches the paper's "relative variance" metric in §7.6 (e.g.
    1.30% for Dandelion image compression vs 389.6% for Firecracker).
    """
    values = list(samples)
    if not values:
        raise ValueError("no samples")
    mean = sum(values) / len(values)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in values) / len(values)
    return 100.0 * variance / (mean * mean)


class LatencyRecorder:
    """Accumulates latency samples and reports summary statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self._sorted: list[float] = []
        self._sum = 0.0

    def record(self, value: float) -> None:
        """Add one sample (negative samples are rejected)."""
        if value < 0:
            raise ValueError(f"negative latency {value}")
        insort(self._sorted, value)
        self._sum += value

    def __len__(self) -> int:
        return len(self._sorted)

    @property
    def count(self) -> int:
        return len(self._sorted)

    @property
    def mean(self) -> float:
        if not self._sorted:
            return float("nan")
        return self._sum / len(self._sorted)

    @property
    def minimum(self) -> float:
        if not self._sorted:
            return float("nan")
        return self._sorted[0]

    @property
    def maximum(self) -> float:
        if not self._sorted:
            return float("nan")
        return self._sorted[-1]

    def percentile(self, q: float) -> float:
        return percentile(self._sorted, q)

    @property
    def median(self) -> float:
        return self.percentile(50.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def relative_variance(self) -> float:
        return relative_variance(self._sorted)
