"""Synthetic Azure-Functions-like trace generation.

The paper replays a 100-function sample (drawn with the InVitro
sampler) of day 6, hour 8 of the Azure Functions trace released by
Shahrad et al. [93].  The trace itself is not redistributable here, so
this module synthesises invocation streams matching that paper's
published statistics:

* invocation counts per function are extremely skewed — a few functions
  receive almost all traffic while most fire rarely (we use Zipf
  popularity over the total volume);
* execution durations are short and heavy-tailed (roughly log-normal;
  ~50% of functions average under one second, many run tens of ms);
* functions fall into arrival-pattern classes: roughly steady
  HTTP-triggered traffic, timer-driven periodic bursts, and rare
  one-off invocations;
* memory footprints are dominated by small allocations (tens to a few
  hundred MB).

This module synthesises the *function population*
(:func:`generate_functions`); :mod:`.stream` turns a population into
the time-ordered invocation stream that both platforms (Dandelion and
Firecracker+Knative) replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..sim.distributions import Rng

__all__ = ["TraceFunction", "generate_functions"]

MiB = 1024 * 1024

# Duration distribution: log-normal, median 80 ms, heavy tail capped
# at 10 s — consistent with the "many functions execute for tens of
# milliseconds or less" / "50% average under 1 s" statistics.
_DURATION_MEDIAN_SECONDS = 0.08
_DURATION_SIGMA = 1.1
_DURATION_MIN = 0.010
_DURATION_MAX = 10.0

# Memory: log-normal, median 48 MiB, capped at 512 MiB.
_MEMORY_MEDIAN = 48 * MiB
_MEMORY_SIGMA = 0.7
_MEMORY_MIN = 16 * MiB
_MEMORY_MAX = 512 * MiB

# Arrival-pattern mix (fractions of functions).
_PATTERN_STEADY = 0.45    # Poisson at the function's rate
_PATTERN_PERIODIC = 0.35  # timer-style: a burst every period
# remainder: "rare" — a handful of invocations over the whole window


@dataclass(frozen=True)
class TraceFunction:
    """One function of the trace with its workload statistics."""

    name: str
    median_duration_seconds: float
    duration_sigma: float
    memory_bytes: int
    pattern: str                 # "steady" | "periodic" | "rare"
    mean_rate_rps: float         # long-run average invocation rate
    period_seconds: float = 0.0  # for periodic functions
    burst_size: int = 1


def generate_functions(
    count: int,
    total_rps: float,
    rng: Rng,
    zipf_skew: float = 1.1,
) -> list[TraceFunction]:
    """Synthesize ``count`` functions sharing ``total_rps`` of traffic."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if total_rps <= 0:
        raise ValueError("total_rps must be positive")
    # Popularity classes calibrated to the Shahrad et al.
    # characterisation: a couple of hot functions carry most traffic;
    # ~90% of functions average less than one invocation per minute.
    # Each function draws a class, then a log-uniform rate within it;
    # all rates are finally scaled so they sum to ``total_rps``.
    classes = [
        (0.02, 0.5, 2.0),       # hot
        (0.08, 0.05, 0.5),      # medium
        (0.25, 0.005, 0.05),    # low: once per 20..200 s
        (1.00, 0.0005, 0.005),  # rare: once per 3..30 min
    ]
    raw = []
    for _ in range(count):
        draw = rng.uniform()
        for fraction, low, high in classes:
            if draw < fraction:
                raw.append(math.exp(rng.uniform(math.log(low), math.log(high))))
                break
            # fractions in `classes` are cumulative upper bounds
    scale = total_rps / sum(raw)
    weights = [rate * scale / total_rps for rate in raw]
    functions = []
    for index in range(count):
        rate = total_rps * weights[index]
        draw = rng.uniform()
        if draw < _PATTERN_STEADY:
            pattern, period, burst = "steady", 0.0, 1
        elif draw < _PATTERN_STEADY + _PATTERN_PERIODIC:
            pattern = "periodic"
            period = rng.choice([30.0, 60.0, 120.0, 300.0])
            # Timer triggers fire one or a few invocations; cap the
            # burst so a popular timer does not degenerate into a
            # stampede of hundreds of simultaneous requests.
            burst = max(1, min(4, round(rate * period)))
        else:
            pattern, period, burst = "rare", 0.0, 1
            rate = min(rate, 1.0 / 300.0)  # at most a few per trace window
        median = rng.lognormal(_DURATION_MEDIAN_SECONDS, _DURATION_SIGMA)
        memory = rng.lognormal(_MEMORY_MEDIAN, _MEMORY_SIGMA)
        functions.append(
            TraceFunction(
                name=f"fn{index:04d}",
                median_duration_seconds=min(3.0, max(_DURATION_MIN, median)),
                duration_sigma=0.4,
                memory_bytes=int(min(_MEMORY_MAX, max(_MEMORY_MIN, memory))),
                pattern=pattern,
                mean_rate_rps=rate,
                period_seconds=period,
                burst_size=burst,
            )
        )
    return functions
