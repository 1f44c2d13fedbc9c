"""Equivalence of the virtual-time PS model with a brute-force reference.

The production :class:`~repro.sim.cpu.ProcessorSharingCpu` uses the
virtual-time algorithm (one global attained-service clock, min-heap of
finish tags, O(log n) membership changes).  The reference model below
is the straightforward O(n)-rescan formulation the repo originally
shipped: on every membership change, walk all queued jobs and subtract
the service attained since the last change.  Both describe the same
fluid processor-sharing system, so completion times must agree — the
optimization may change wall-clock time only, never virtual-time
results.  Only the job accounting is independent: the reference arms
its completion timer by production's rule, because with a switch
overhead the order of an arrival and a completion at one instant
decides whether the arrival is charged.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Environment, ProcessorSharingCpu
from repro.sim.core import Event


class _RefJob:
    __slots__ = ("remaining", "event", "last_update")

    def __init__(self, work, event, now):
        self.remaining = work
        self.event = event
        self.last_update = now


class ReferenceProcessorSharingCpu:
    """Brute-force PS: O(n) rescan of every job per membership change."""

    def __init__(self, env, cores, switch_overhead_seconds=0.0,
                 oversubscribed_efficiency=1.0):
        self.env = env
        self.cores = cores
        self.switch_overhead_seconds = switch_overhead_seconds
        self.oversubscribed_efficiency = oversubscribed_efficiency
        self._jobs = []
        self._timer = None
        self._timer_deadline = float("inf")
        self.jobs_completed = 0
        self.busy_core_seconds = 0.0

    @property
    def current_rate(self):
        if not self._jobs:
            return 1.0
        if len(self._jobs) <= self.cores:
            return 1.0
        return (self.cores / len(self._jobs)) * self.oversubscribed_efficiency

    def consume(self, cpu_seconds) -> Event:
        event = self.env.event()
        if cpu_seconds == 0:
            event.succeed()
            return event
        self._advance()
        work = cpu_seconds
        if len(self._jobs) >= self.cores and self.switch_overhead_seconds:
            work += self.switch_overhead_seconds
        self._jobs.append(_RefJob(work, event, self.env.now))
        self._reschedule()
        return event

    def _advance(self):
        if not self._jobs:
            return
        rate = self.current_rate
        now = self.env.now
        for job in self._jobs:
            progressed = (now - job.last_update) * rate
            job.remaining = max(0.0, job.remaining - progressed)
            job.last_update = now
            self.busy_core_seconds += progressed

    def _reschedule(self):
        # The timer policy (not the job accounting) is production's: a
        # plain timeout armed at once, and a pending timer that is not
        # late is kept.  A job arriving at the very instant another
        # completes is charged the switch overhead or not depending on
        # which of the two events runs first, so both models must queue
        # their completion timers at the same moments.
        if not self._jobs:
            self._timer, self._timer_deadline = None, float("inf")
            return
        delay = min(job.remaining for job in self._jobs) / self.current_rate
        deadline = self.env.now + delay
        if self._timer is not None and self._timer_deadline <= deadline:
            return
        self._timer, self._timer_deadline = self.env.timeout(delay), deadline
        self._timer.callbacks.append(self._fire)

    def _fire(self, timer):
        if timer is not self._timer:
            return
        self._timer, self._timer_deadline = None, float("inf")
        self._advance()
        finished = [job for job in self._jobs if job.remaining <= 1e-12]
        if finished:
            self._jobs = [job for job in self._jobs if job.remaining > 1e-12]
            for job in finished:
                self.jobs_completed += 1
                job.event.succeed()
        self._reschedule()


def _run_workload(cpu_factory, jobs):
    """Run (delay, work) jobs through a CPU; return completion times."""
    env = Environment()
    cpu = cpu_factory(env)
    finishes = {}

    def job(tag, delay, work):
        if delay:
            yield env.timeout(delay)
        yield cpu.consume(work)
        finishes[tag] = env.now

    for tag, (delay, work) in enumerate(jobs):
        env.process(job(tag, delay, work))
    env.run()
    return finishes, cpu


_jobs = st.lists(
    st.tuples(
        st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
        st.floats(1e-6, 1.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=20,
)


# With a switch overhead the system is discontinuous where an arrival
# meets a completion: the arrival is charged or not depending on which
# event runs first, and two float formulations whose completion times
# differ in the last ulp cannot agree there.  Hypothesis produces such
# ties at will (it repeats values: delay 1.0 after work 1.0), so for
# overhead > 0 the inputs are drawn tie-free: delays on a dyadic grid,
# work in multiples of an irrational unit.  A completion time is a
# positive rational combination of works plus a rational combination of
# delays and overheads, so it never lands on the grid.  Without
# overhead a tie changes nothing and any floats will do.
_WORK_UNIT = 2**0.5 / 1000
_tie_free_jobs = st.lists(
    st.tuples(
        st.integers(0, 32).map(lambda n: n / 16),
        st.integers(1, 1000).map(lambda n: n * _WORK_UNIT),
    ),
    min_size=1,
    max_size=20,
)
_jobs_and_overhead = st.one_of(
    st.tuples(_jobs, st.just(0.0)), st.tuples(_tie_free_jobs, st.just(1e-5))
)

# Exact ties, where the order is defined and both models keep it: a
# fifth job arriving at t=1.0, the instant four 1 s jobs complete on
# four cores, as (jobs, completion time of the late job).  Its timeout
# is queued behind the completion timer when it is listed after the job
# that armed that timer (the cores are free again: no overhead), and
# ahead of it when listed first (charged).
_TIES = [
    ([(0.0, 1.0)] * 4 + [(1.0, 1.0)], 2.0),
    ([(1.0, 1.0)] + [(0.0, 1.0)] * 4, 2.00001),
    ([(0.0, 1.0), (1.0, 1.0)] + [(0.0, 1.0)] * 3, 2.0),  # timer kept, not re-armed
]


@pytest.mark.parametrize("cpu_class", [ProcessorSharingCpu, ReferenceProcessorSharingCpu])
@pytest.mark.parametrize("jobs,late_finish", _TIES)
def test_arrival_at_a_completion_instant(cpu_class, jobs, late_finish):
    finishes, _ = _run_workload(
        lambda env: cpu_class(env, 4, switch_overhead_seconds=1e-5), jobs
    )
    late = next(tag for tag, (delay, _work) in enumerate(jobs) if delay)
    assert finishes[late] == pytest.approx(late_finish, abs=1e-9)


@settings(max_examples=120, deadline=None)
@given(_jobs_and_overhead, st.sampled_from([1, 2, 4]))
@example((_TIES[0][0], 1e-5), 4)
@example((_TIES[1][0], 1e-5), 4)
@example((_TIES[2][0], 1e-5), 4)
def test_virtual_time_matches_brute_force(jobs_and_overhead, cores):
    jobs, overhead = jobs_and_overhead
    fast, fast_cpu = _run_workload(
        lambda env: ProcessorSharingCpu(env, cores, switch_overhead_seconds=overhead),
        jobs,
    )
    slow, slow_cpu = _run_workload(
        lambda env: ReferenceProcessorSharingCpu(env, cores, switch_overhead_seconds=overhead),
        jobs,
    )
    assert set(fast) == set(slow)
    for tag in fast:
        assert abs(fast[tag] - slow[tag]) < 1e-9, (
            f"job {tag}: virtual-time {fast[tag]!r} vs brute-force {slow[tag]!r}"
        )
    assert fast_cpu.jobs_completed == slow_cpu.jobs_completed == len(jobs)
    assert abs(fast_cpu.busy_core_seconds - slow_cpu.busy_core_seconds) < 1e-6


@settings(max_examples=40, deadline=None)
@given(_jobs, st.sampled_from([0.5, 0.9]))
def test_virtual_time_matches_brute_force_degraded_efficiency(jobs, efficiency):
    fast, _ = _run_workload(
        lambda env: ProcessorSharingCpu(env, 2, oversubscribed_efficiency=efficiency),
        jobs,
    )
    slow, _ = _run_workload(
        lambda env: ReferenceProcessorSharingCpu(env, 2, oversubscribed_efficiency=efficiency),
        jobs,
    )
    for tag in fast:
        assert abs(fast[tag] - slow[tag]) < 1e-9
