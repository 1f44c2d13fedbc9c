"""Streamed trace generation: the invocation stream both platforms replay.

:class:`StreamedTrace` keeps the *function* population materialized
and hands the invocation stream out a window at a time.  The first
window draws each function's arrivals and durations in one go into two
``array('d')`` columns (16 B per invocation) and drops its generators
before the next function is seeded; a function that never fires keeps
nothing.  Each function with arrivals left sits in a calendar bucket
keyed by the window of its next one; producing a window touches only
the functions due in it, emits their arrivals up to the window end,
files each under its next window and sorts the window's list once.
Keeping two live generators per firing function instead (2 × 2,520 B)
breaks even at about 320 invocations per function; the traces here
average 7 (30× over 120 s) to 67 (100× over 1,200 s).

Every function has its own pair of RNG streams keyed by its position,
so its invocation sequence is independent of the window length and of
how (or whether) the other functions are consumed — the property the
sharded simulator's invariance argument leans on — and two iterations
of the same :class:`StreamedTrace` yield byte-identical streams.  A
function whose first arrival misses the trace never seeds the second.
Each stream is a bare C generator (``_random.Random``, the base of
``random.Random``) seeded with the value ``Rng(seed).fork(3).fork(i +
1)`` (arrivals) or ``.fork(2).fork(i + 1)`` (durations) would carry,
computed by :func:`~repro.sim.distributions.fork_seed`; no ``Rng`` and
none of ``random.Random``'s Python seeding layers are built per
function.

Arrival patterns: ``steady`` and ``rare`` functions are Poisson at
their mean rate; ``periodic`` ones fire a burst every period from a
random phase, each invocation jittered after the timer tick.
Invocations are plain ``(time, function_index, duration_seconds)``
tuples: at a million-plus arrivals the allocation difference to a
dataclass is measurable, and the replay only ever needs those three
fields.
"""

from __future__ import annotations

import math
from array import array
from _random import Random as _Generator  # random.Random's C base
from itertools import chain
from typing import Iterator

from ..sim.distributions import Rng, fork_seed
from .azure import (
    TraceFunction,
    _DURATION_MAX,
    _DURATION_MIN,
    generate_functions,
)
from .sampler import sample_functions

__all__ = ["StreamedTrace", "streamed_trace"]

# Periodic bursts jitter each invocation up to this many seconds after
# the timer tick; StreamedTrace rejects shorter periods (every one in
# generate_functions is >= 30s), so bursts of consecutive periods never
# overlap and sorting within one period keeps the stream monotone.
_PERIODIC_JITTER = 10.0
_TWOPI = 2.0 * math.pi  # random.gauss's constant


def _draw_ahead(fn, duration, arrival_seed, duration_seed, salt):
    """One function's arrival times (then ``inf``, never due) and
    durations as two ``array('d')``, or ``None`` if it never fires.

    ``expovariate``, ``uniform(0, x)`` (``x * random()``) and ``gauss``
    (a Box–Muller pair, odd draws its spare) are written out: a method
    call per draw is measurable at 100× scale.  The generators die with
    this frame.
    """
    exp, log, cos, sin, sqrt = math.exp, math.log, math.cos, math.sin, math.sqrt
    random = _Generator(fork_seed(arrival_seed, salt)).random
    times = array("d")
    add = times.append
    if fn.pattern == "periodic":
        period = fn.period_seconds
        t = period * random()
        while t < duration:
            burst = sorted([t + _PERIODIC_JITTER * random() for _ in range(fn.burst_size)])
            times.extend([when for when in burst if when < duration])
            t += period
    else:
        rate = fn.mean_rate_rps
        t = -log(1.0 - random()) / rate
        while t < duration:
            add(t)
            t += -log(1.0 - random()) / rate
    if not times:
        return None
    draw = _Generator(fork_seed(duration_seed, salt)).random
    log_median, sigma = log(fn.median_duration_seconds), fn.duration_sigma
    durations = array("d")
    add = durations.append
    for i in range(len(times)):
        if i & 1:
            z = spare
        else:
            x2pi = draw() * _TWOPI
            g2rad = sqrt(-2.0 * log(1.0 - draw()))
            z = cos(x2pi) * g2rad
            spare = sin(x2pi) * g2rad
        d = exp(log_median + sigma * z)
        if d < _DURATION_MIN:
            d = _DURATION_MIN
        elif d > _DURATION_MAX:
            d = _DURATION_MAX
        add(d)
    times.append(math.inf)
    return times, durations


def _reject_malformed(functions) -> None:
    """Raise for a function whose stream would hang or come out unsorted."""
    for fn in functions:
        periodic = fn.pattern == "periodic"
        if fn.pattern not in ("steady", "periodic", "rare"):
            problem = f"unknown pattern {fn.pattern!r}"
        elif not 0 < fn.mean_rate_rps < math.inf:
            problem = "mean_rate_rps must be positive and finite"
        elif periodic and not fn.period_seconds >= _PERIODIC_JITTER:
            problem = f"period_seconds must be >= the {_PERIODIC_JITTER:g}s burst jitter"
        elif periodic and fn.burst_size < 1:
            problem = "burst_size must be >= 1"
        elif not fn.median_duration_seconds > 0:
            problem = "median_duration_seconds must be positive"
        elif not fn.duration_sigma >= 0:
            problem = "duration_sigma must be >= 0"
        else:
            continue
        raise ValueError(f"trace function {fn.name!r}: {problem}")


class StreamedTrace:
    """A replayable trace whose invocation stream is generated lazily.

    ``functions`` is the full (possibly sampled) population;
    :meth:`iter_invocations` yields time-ordered
    ``(time, function_index, duration_seconds)`` tuples where
    ``function_index`` indexes into ``functions``, :meth:`iter_windows`
    the same tuples a list per window.  Iterating twice yields
    identical streams.
    """

    __slots__ = ("functions", "duration_seconds", "seed")

    def __init__(self, functions: list[TraceFunction], duration_seconds: float, seed: int):
        self.functions = list(functions)
        self.duration_seconds = float(duration_seconds)
        self.seed = seed
        if not 0 <= self.duration_seconds < math.inf:
            raise ValueError("duration_seconds must be finite and >= 0")
        _reject_malformed(self.functions)

    @property
    def function_count(self) -> int:
        return len(self.functions)

    def memory_bytes(self) -> list[int]:
        """Per-function memory footprint, indexed like the stream."""
        return [fn.memory_bytes for fn in self.functions]

    def iter_invocations(self) -> Iterator[tuple]:
        """Time-ordered invocation tuples, drawn ahead as 16 B per invocation."""
        # Any window length flattens to the same stream; a short one
        # keeps few invocations alive at a time.
        return chain.from_iterable(self.iter_windows(0.125))

    def iter_windows(self, window_seconds: float) -> Iterator[list]:
        """One time-ordered list of invocation tuples per window.

        Window ``k`` ends at ``(k + 1) * window_seconds``, the sharded
        coordinator's own expression; the last one is the first whose
        end reaches the trace duration.
        """
        if not window_seconds > 0:
            raise ValueError("window_seconds must be positive")
        return self._windows(window_seconds)

    def _windows(self, window):
        duration = self.duration_seconds
        seeds = fork_seed(self.seed, 3), fork_seed(self.seed, 2)  # arrivals, durations
        # Per-function state, a list the calendar carries from window to
        # window: [cursor, index, times, durations], ``times[cursor]``
        # the next arrival.
        drawn = (_draw_ahead(fn, duration, *seeds, i + 1) for i, fn in enumerate(self.functions))
        # Window index -> states whose next arrival falls in it.  Every
        # function starts in window 0 and files itself under its first
        # arrival's window from there, so there is one filing site.
        calendar = {0: [[0, index, *columns] for index, columns in enumerate(drawn) if columns]}
        k = 0
        while True:
            end = (k + 1) * window
            stop = end if end < duration else duration
            arrivals = []
            add = arrivals.append
            for state in calendar.pop(k, ()):
                cursor, index, times, durations = state
                t = times[cursor]
                while t < stop:
                    add((t, index, durations[cursor]))
                    cursor += 1
                    t = times[cursor]
                if t >= duration:
                    continue  # exhausted: its arrays go with the state
                state[0] = cursor
                # The coordinator's expression, not the quotient,
                # decides which side of a boundary an arrival is on.
                bucket = int(t / window)
                if t >= (bucket + 1) * window:
                    bucket += 1
                elif t < bucket * window:
                    bucket -= 1
                calendar.setdefault(bucket, []).append(state)
            arrivals.sort()
            yield arrivals
            if end >= duration:
                return
            k += 1


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
