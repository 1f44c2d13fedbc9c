"""Equivalence of the virtual-time PS model with a brute-force reference.

The production :class:`~repro.sim.cpu.ProcessorSharingCpu` uses the
virtual-time algorithm (one global attained-service clock, min-heap of
finish tags, O(log n) membership changes).  The reference model below
is the straightforward O(n)-rescan formulation the repo originally
shipped: on every membership change, walk all queued jobs and subtract
the service attained since the last change.  Both describe the same
fluid processor-sharing system, so completion times must agree — the
optimization may change wall-clock time only, never virtual-time
results.
"""

from hypothesis import assume, given, settings
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
        self._timer_generation = 0
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
        self._timer_generation += 1
        generation = self._timer_generation
        if not self._jobs:
            return
        soonest = min(job.remaining for job in self._jobs)
        self.env.process(self._fire_after(soonest / self.current_rate, generation))

    def _fire_after(self, delay, generation):
        yield self.env.timeout(delay)
        if generation != self._timer_generation:
            return
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


@settings(max_examples=120, deadline=None)
@given(_jobs, st.sampled_from([1, 2, 4]), st.sampled_from([0.0, 1e-5]))
def test_virtual_time_matches_brute_force(jobs, cores, overhead):
    fast, fast_cpu = _run_workload(
        lambda env: ProcessorSharingCpu(env, cores, switch_overhead_seconds=overhead),
        jobs,
    )
    slow, slow_cpu = _run_workload(
        lambda env: ReferenceProcessorSharingCpu(env, cores, switch_overhead_seconds=overhead),
        jobs,
    )
    assert set(fast) == set(slow)
    if overhead:
        # A job arriving at the instant another completes is charged the
        # switch overhead or not depending on which event runs first, and
        # the two formulations neither schedule their timers in the same
        # order nor round completion times alike (found by
        # --hypothesis-seed=0: four 1.0 s jobs on four cores and a fifth
        # arriving at t=1.0).  Not a PS-model property.
        completions = {*fast.values(), *slow.values()}
        assume(all(abs(delay - done) > 1e-9 for delay, _work in jobs for done in completions))
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
