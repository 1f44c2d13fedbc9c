"""Open-loop load generation for throughput/latency experiments.

All the paper's loaded experiments (Figs 5–8) drive a platform with an
open-loop arrival process at a configured request rate and report
latency percentiles and achieved throughput.  :func:`run_open_loop`
implements that harness over any ``submit`` callable — a Dandelion
frontend invocation, a baseline-platform request, or a D-hybrid task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from ..sim.core import Environment
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
    ``warmup_seconds`` are executed but not measured.  After the last
    arrival, the run waits up to ``drain_seconds`` for stragglers.
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
        env,
        submit,
        arrivals,
        offered_rps=rate_rps,
        duration_seconds=duration_seconds,
        warmup_until=env.now + warmup_seconds,
        drain_seconds=drain_seconds,
    )


def run_arrivals(
    env: Environment,
    submit: Callable[[], object],
    arrival_times: Iterable[float],
    offered_rps: float = 0.0,
    duration_seconds: float = 0.0,
    warmup_until: float = 0.0,
    drain_seconds: float = 60.0,
) -> LoadResult:
    """Like :func:`run_open_loop` but with explicit arrival timestamps
    (used by bursty schedules and trace replay)."""
    arrival_times = sorted(arrival_times)
    latencies = LatencyRecorder()
    state = {"completed": 0, "failed": 0}

    def finish(started: float, event) -> None:
        # Completion callback for one request (a failed completion
        # event propagates through the all_of below, as before).
        if not event._ok:
            return
        outcome = event._value
        if getattr(outcome, "ok", True) is False:
            state["failed"] += 1
        else:
            state["completed"] += 1
            if started >= warmup_until:
                latencies.record(env.now - started)

    def driver():
        # One driver process submits every request at its arrival time
        # and observes completions via callbacks — this used to be a
        # process per request, whose create/initialize/resume churn
        # dominated the event heap at high request counts.
        pending = []
        for arrive_at in arrival_times:
            delay = arrive_at - env.now
            if delay > 0:
                yield env.timeout(delay)
            started = env.now
            completion = submit()
            completion.callbacks.append(
                lambda event, started=started: finish(started, event)
            )
            pending.append(completion)
        if pending:
            yield env.all_of(pending)

    start = env.now
    driver_process = env.process(driver())
    if duration_seconds:
        # Stop at the drain deadline even if stragglers are still in
        # flight (they simply go unmeasured).
        cutoff = env.timeout(duration_seconds + drain_seconds)
        env.run(until=env.any_of([driver_process, cutoff]))
    else:
        env.run(until=driver_process)
    makespan = env.now - start
    return LoadResult(
        offered_rps=offered_rps,
        duration_seconds=duration_seconds,
        completed=state["completed"],
        failed=state["failed"],
        latencies=latencies,
        makespan_seconds=makespan,
    )
