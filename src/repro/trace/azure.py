"""Synthetic Azure-Functions-like trace generation.

The paper replays a 100-function sample (drawn with the InVitro
sampler) of day 6, hour 8 of the Azure Functions trace released by
Shahrad et al. [93].  The trace itself is not redistributable here, so
this module synthesises invocation streams matching that paper's
published statistics:

* invocation counts per function are extremely skewed — a few functions
  receive almost all traffic while most fire rarely (each function
  draws one of four popularity classes, ``_RATE_CLASSES``, and a
  log-uniform rate within it);
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
Firecracker+Knative) replay.  The population's draws are the standard
library's ``uniform``, ``choice`` and ``lognormvariate`` written out
over the generator's own ``random()`` and ``getrandbits()``;
``tests/trace/test_population_equivalence.py`` checks them against the
same population drawn through the :class:`~repro.sim.distributions.Rng`
helpers (``tests/trace/population_oracle.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import NV_MAGICCONST

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


# Popularity classes calibrated to the Shahrad et al.
# characterisation: a couple of hot functions carry most traffic; ~90%
# of functions average less than one invocation per minute.  Each row
# is (cumulative fraction of functions, low rate, high rate) in rps.
_RATE_CLASSES = (
    (0.02, 0.5, 2.0),       # hot
    (0.08, 0.05, 0.5),      # medium
    (0.25, 0.005, 0.05),    # low: once per 20..200 s
    (1.00, 0.0005, 0.005),  # rare: once per 3..30 min
)
_PERIODS = (30.0, 60.0, 120.0, 300.0)  # timer periods, in seconds


def generate_functions(count: int, total_rps: float, rng: Rng) -> list[TraceFunction]:
    """Synthesize ``count`` functions sharing ``total_rps`` of traffic.

    Each function draws a popularity class, then a log-uniform rate
    within it; all rates are finally scaled so they sum to
    ``total_rps``.  Each draw is written out in the standard library's
    float operations and order, which saves the method layers around
    it, and leaves ``rng`` where the helpers would.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0 < total_rps < math.inf:
        raise ValueError("total_rps must be positive and finite")
    random = rng._random.random
    getrandbits = rng._random.getrandbits
    exp, log = math.exp, math.log
    # uniform(a, b) is ``a + (b - a) * random()``.
    classes = [
        (fraction, log(low), log(high) - log(low))
        for fraction, low, high in _RATE_CLASSES
    ]
    raw = []
    for _ in range(count):
        draw = random()
        for fraction, low, span in classes:
            if draw < fraction:
                raw.append(exp(low + span * random()))
                break
            # fractions in `classes` are cumulative upper bounds
    scale = total_rps / sum(raw)
    periodic_below = _PATTERN_STEADY + _PATTERN_PERIODIC
    duration_mu = log(_DURATION_MEDIAN_SECONDS)
    memory_mu = log(_MEMORY_MEDIAN)
    functions = []
    for index, raw_rate in enumerate(raw):
        rate = total_rps * (raw_rate * scale / total_rps)
        draw = random()
        if draw < _PATTERN_STEADY:
            pattern, period, burst = "steady", 0.0, 1
        elif draw < periodic_below:
            pattern = "periodic"
            # choice() over four items: _randbelow(4) redraws three
            # bits until they fall below four.
            pick = getrandbits(3)
            while pick >= 4:
                pick = getrandbits(3)
            period = _PERIODS[pick]
            # Timer triggers fire one or a few invocations; cap the
            # burst so a popular timer does not degenerate into a
            # stampede of hundreds of simultaneous requests.
            burst = max(1, min(4, round(rate * period)))
        else:
            pattern, period, burst = "rare", 0.0, 1
            rate = min(rate, 1.0 / 300.0)  # at most a few per trace window
        # lognormvariate(mu, sigma) is ``exp(mu + z * sigma)``; Rng.lognormal
        # passes it ``log(median)``.
        median = exp(duration_mu + _standard_normal(random) * _DURATION_SIGMA)
        memory = exp(memory_mu + _standard_normal(random) * _MEMORY_SIGMA)
        functions.append(
            TraceFunction(  # positional, in field order: keywords cost 0.3 µs
                f"fn{index:04d}",
                min(3.0, max(_DURATION_MIN, median)),
                0.4,
                int(min(_MEMORY_MAX, max(_MEMORY_MIN, memory))),
                pattern,
                rate,
                period,
                burst,
            )
        )
    return functions


def _standard_normal(random):
    """A standard normal draw over ``random``: ``normalvariate``'s
    Kinderman–Monahan ratio-of-uniforms loop, written out."""
    while True:
        u1 = random()
        u2 = 1.0 - random()
        z = NV_MAGICCONST * (u1 - 0.5) / u2
        if z * z / 4.0 <= -math.log(u2):
            return z
