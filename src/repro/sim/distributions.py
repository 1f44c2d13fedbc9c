"""Seeded random-variate helpers for workload synthesis.

All experiment randomness flows through :class:`Rng` so that every
benchmark run is reproducible from its seed.  The helpers implement the
distributions the serverless literature uses to describe production
workloads: exponential inter-arrival times for Poisson traffic,
log-normal execution durations (Shahrad et al. report log-normal-like
duration distributions in the Azure trace), and bounded Pareto for
heavy tails.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

__all__ = ["Rng", "fork_seed"]


def fork_seed(seed: int, salt: int) -> int:
    """The seed of the stream :meth:`Rng.fork` derives from ``seed``."""
    return (seed * 1_000_003 + salt) & 0x7FFFFFFF


class Rng:
    """A seeded random source with workload-oriented draw helpers."""

    def __init__(self, seed: int = 0):
        self._random = random.Random(seed)
        self.seed = seed

    def fork(self, salt: int) -> "Rng":
        """Derive an independent stream (stable for a given salt)."""
        return Rng(fork_seed(self.seed, salt))

    # -- raw draws ------------------------------------------------------

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, items: Sequence):
        return self._random.choice(items)

    def sample(self, items: Sequence, count: int) -> list:
        return self._random.sample(items, count)

    def bernoulli(self, probability: float) -> bool:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability} out of range")
        return self._random.random() < probability

    # -- distributions ----------------------------------------------------

    def exponential(self, mean: float) -> float:
        """Exponential variate with the given mean (> 0)."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return self._random.expovariate(1.0 / mean)

    def lognormal(self, median: float, sigma: float) -> float:
        """Log-normal variate parameterised by its median and log-sd."""
        if median <= 0:
            raise ValueError("median must be positive")
        return self._random.lognormvariate(math.log(median), sigma)

    def zipf_weights(self, count: int, skew: float = 1.0) -> list[float]:
        """Normalised Zipf popularity weights for ``count`` items."""
        if count < 1:
            raise ValueError("count must be >= 1")
        raw = [1.0 / (rank**skew) for rank in range(1, count + 1)]
        total = sum(raw)
        return [w / total for w in raw]

    # -- arrival processes -------------------------------------------------

    def poisson_arrivals(self, rate: float, duration: float, start: float = 0.0) -> list[float]:
        """Arrival times of a Poisson process over [start, start+duration)."""
        if rate < 0:
            raise ValueError("rate must be non-negative")
        arrivals: list[float] = []
        if rate == 0:
            return arrivals
        t = start
        while True:
            t += self.exponential(1.0 / rate)
            if t >= start + duration:
                return arrivals
            arrivals.append(t)

    def piecewise_poisson_arrivals(
        self, segments: Iterable[tuple[float, float]], start: float = 0.0
    ) -> list[float]:
        """Arrivals for consecutive (duration, rate) segments.

        Used to build bursty load patterns like Fig 8's changing RPS.
        """
        arrivals: list[float] = []
        t = start
        for duration, rate in segments:
            if duration < 0 or rate < 0:
                raise ValueError("duration and rate must be non-negative")
            arrivals.extend(self.poisson_arrivals(rate, duration, start=t))
            t += duration
        return arrivals
