"""Open-loop load generation for throughput/latency experiments.

All the paper's loaded experiments (Figs 5–8) drive a platform with an
open-loop arrival process at a configured request rate and report
latency percentiles and achieved throughput.  :func:`run_open_loop`
implements that harness over any ``submit`` callable — a Dandelion
frontend invocation, a baseline-platform request, or a D-hybrid task.
The driver is no generator process: one chain of scheduled calls
submits each request at its arrival time, and a callback on the
returned event counts its completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Optional

from ..sim.core import Environment, Event
from ..sim.distributions import Rng
from ..sim.metrics import LatencyRecorder

__all__ = ["LoadResult", "run_open_loop", "run_arrivals"]


@dataclass
class LoadResult:
    """Outcome of one open-loop run."""

    offered_rps: float
    duration_seconds: float
    completed: int
    failed: int
    latencies: LatencyRecorder
    makespan_seconds: float

    @property
    def achieved_rps(self) -> float:
        if self.makespan_seconds <= 0:
            return 0.0
        return self.completed / self.makespan_seconds

    @property
    def saturated(self) -> bool:
        """Whether the system could not keep up with the offered load."""
        return self.achieved_rps < 0.95 * self.offered_rps


def run_open_loop(
    env: Environment,
    submit: Callable[[], object],
    rate_rps: float,
    duration_seconds: float,
    rng: Optional[Rng] = None,
    warmup_seconds: float = 0.0,
    drain_seconds: float = 60.0,
) -> LoadResult:
    """Drive ``submit`` with open-loop arrivals and collect latencies.

    Arrivals are Poisson when ``rng`` is given, deterministic (evenly
    spaced) otherwise.  Requests arriving during the first
    ``warmup_seconds`` are executed but not measured.  After the arrival
    window, the run waits up to ``drain_seconds`` for stragglers.
    """
    if rng is not None:
        arrivals = rng.poisson_arrivals(rate_rps, duration_seconds, start=env.now)
    else:
        step = 1.0 / rate_rps if rate_rps > 0 else float("inf")
        arrivals = []
        t = env.now
        while t < env.now + duration_seconds and rate_rps > 0:
            arrivals.append(t)
            t += step
    return run_arrivals(
        env, submit, arrivals, offered_rps=rate_rps,
        duration_seconds=duration_seconds, warmup_until=env.now + warmup_seconds,
        drain_seconds=drain_seconds,
    )


def run_arrivals(
    env: Environment,
    submit: Callable[[], Event],
    arrival_times: Iterable[float],
    offered_rps: float = 0.0,
    duration_seconds: float = 0.0,
    warmup_until: float = 0.0,
    drain_seconds: float = 60.0,
) -> LoadResult:
    """Like :func:`run_open_loop` but with explicit arrival timestamps
    (used by bursty schedules).  ``submit`` returns a pending event.

    The run ends when the last request completes or, given a
    ``duration_seconds``, at ``duration_seconds + drain_seconds`` after
    the start: a request that completes at or before that cutoff counts,
    whatever the submitter; later stragglers go unmeasured.
    """
    arrivals = sorted(arrival_times)
    latencies = LatencyRecorder()
    done = Event(env)
    completed = failed = outstanding = submitted = 0

    def stop(_event=None) -> None:
        if not done._state:
            done.succeed()

    def finish(started: float, event: Event) -> None:
        nonlocal completed, failed, outstanding
        if not event._ok:
            return  # a failed completion leaves run() as its exception
        outstanding -= 1
        if getattr(event._value, "ok", True) is False:
            failed += 1
        else:
            completed += 1
            if started >= warmup_until:
                latencies.record(env.now - started)
        if not outstanding and submitted == len(arrivals):
            stop()

    def step() -> None:
        nonlocal outstanding, submitted
        while submitted < len(arrivals):
            arrival = arrivals[submitted]
            if arrival > env.now:
                env.call_at(arrival, step)
                return
            submitted += 1
            outstanding += 1
            submit().callbacks.append(partial(finish, env.now))
        if not outstanding:
            stop()

    start = env.now
    env.call_later(0, step)
    if duration_seconds:
        env.timeout(duration_seconds + drain_seconds).callbacks.append(stop)
    env.run(until=done)
    if outstanding or submitted < len(arrivals):
        # Cut off: finish every event at the cutoff instant, so whether
        # a completion there counts does not depend on its heap position.
        env.run(until=env.now)
    return LoadResult(offered_rps, duration_seconds, completed, failed, latencies, env.now - start)
