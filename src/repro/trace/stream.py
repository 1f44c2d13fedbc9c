"""Streamed trace generation: the invocation stream both platforms replay.

:class:`StreamedTrace` keeps the *function* population materialized
(O(functions), small) and generates the invocation stream lazily: one
tiny generator per function, merged in time order with
:func:`heapq.merge`.  Peak memory is O(functions) — there is never a
full arrival list, so the paper's 100-function sample and a 100×
population (over a million invocations) go through the same code.

Every function forks its own pair of RNG streams keyed by its position.
Each function's invocation sequence is therefore independent of how (or
whether) the other functions are consumed — the property the sharded
simulator's invariance argument leans on — and two iterations of the
same :class:`StreamedTrace` yield byte-identical streams.

Arrival patterns: ``steady`` and ``rare`` functions are Poisson at
their mean rate; ``periodic`` ones fire a burst every period from a
random phase, each invocation jittered after the timer tick.
Invocations are plain ``(time, function_index, duration_seconds)``
tuples: at a million-plus arrivals the allocation difference to a
dataclass is measurable, and the replay only ever needs those three
fields.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterator

from ..sim.distributions import Rng
from .azure import (
    TraceFunction,
    _DURATION_MAX,
    _DURATION_MIN,
    generate_functions,
)
from .sampler import sample_functions

__all__ = ["StreamedTrace", "streamed_trace"]

# Periodic bursts jitter each invocation up to this many seconds after
# the timer tick; every period in generate_functions is >= 30s, so
# bursts of consecutive periods never overlap and sorting within one
# period keeps the stream monotone.
_PERIODIC_JITTER = 10.0


def _poisson_stream(index, fn, duration, arng, drng):
    # Hot loop: bind the underlying generator methods once per function
    # instead of per draw (an Rng wrapper call per invocation is
    # measurable at 100× scale).  ``expovariate(rate)`` is exactly
    # ``Rng.exponential(1/rate)``'s draw, and
    # ``exp(mu + sigma * gauss())`` is a lognormal draw through the
    # Box–Muller path, which amortizes one transcendental pair over two
    # draws where ``lognormvariate`` pays a rejection loop per draw.
    rate = fn.mean_rate_rps
    log_median = math.log(fn.median_duration_seconds)
    sigma = fn.duration_sigma
    gap = arng._random.expovariate
    gauss = drng._random.gauss
    exp = math.exp
    t = 0.0
    while True:
        t += gap(rate)
        if t >= duration:
            return
        d = exp(log_median + sigma * gauss(0.0, 1.0))
        if d < _DURATION_MIN:
            d = _DURATION_MIN
        elif d > _DURATION_MAX:
            d = _DURATION_MAX
        yield (t, index, d)


def _periodic_stream(index, fn, duration, arng, drng):
    log_median = math.log(fn.median_duration_seconds)
    sigma = fn.duration_sigma
    period = fn.period_seconds
    burst_size = fn.burst_size
    uniform = arng.uniform
    gauss = drng._random.gauss
    exp = math.exp
    t = uniform(0, period)
    while t < duration:
        batch = []
        for _ in range(burst_size):
            when = t + uniform(0, _PERIODIC_JITTER)
            if when < duration:
                batch.append(when)
        batch.sort()
        for when in batch:
            d = exp(log_median + sigma * gauss(0.0, 1.0))
            if d < _DURATION_MIN:
                d = _DURATION_MIN
            elif d > _DURATION_MAX:
                d = _DURATION_MAX
            yield (when, index, d)
        t += period


class StreamedTrace:
    """A replayable trace whose invocation stream is generated lazily.

    ``functions`` is the full (possibly sampled) population;
    :meth:`iter_invocations` yields time-ordered
    ``(time, function_index, duration_seconds)`` tuples where
    ``function_index`` indexes into ``functions``.  Iterating twice
    yields identical streams.
    """

    __slots__ = ("functions", "duration_seconds", "seed")

    def __init__(self, functions: list[TraceFunction], duration_seconds: float, seed: int):
        self.functions = list(functions)
        self.duration_seconds = float(duration_seconds)
        self.seed = seed

    @property
    def function_count(self) -> int:
        return len(self.functions)

    def memory_bytes(self) -> list[int]:
        """Per-function memory footprint, indexed like the stream."""
        return [fn.memory_bytes for fn in self.functions]

    def iter_invocations(self) -> Iterator[tuple]:
        """Time-ordered invocation tuples; O(functions) peak memory."""
        base = Rng(self.seed)
        duration_base = base.fork(2)
        arrival_base = base.fork(3)
        streams = []
        for index, fn in enumerate(self.functions):
            arng = arrival_base.fork(index + 1)
            drng = duration_base.fork(index + 1)
            if fn.pattern == "periodic":
                streams.append(_periodic_stream(index, fn, self.duration_seconds, arng, drng))
            else:  # steady and rare are both Poisson at the mean rate
                streams.append(_poisson_stream(index, fn, self.duration_seconds, arng, drng))
        return heapq.merge(*streams)


def streamed_trace(
    function_count: int = 10_000,
    duration_seconds: float = 1200.0,
    total_rps: float = 1200.0,
    seed: int = 42,
    sample_size: int | None = None,
    strata: int = 5,
) -> StreamedTrace:
    """Build a streamed trace population (defaults: 100× the Fig 10 sample).

    ``sample_size`` optionally restricts the generated population with
    the InVitro-style stratified sampler — the sampled subset then
    carries only its own share of ``total_rps``.
    """
    rng = Rng(seed)
    functions = generate_functions(function_count, total_rps, rng.fork(1))
    if sample_size is not None and sample_size < len(functions):
        functions = sample_functions(functions, sample_size, rng.fork(4), strata=strata)
    return StreamedTrace(functions, duration_seconds, seed)
