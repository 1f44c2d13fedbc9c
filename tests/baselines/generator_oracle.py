"""Reference for the baseline-equivalence property in ``test_faas_equivalence``.

The generator formulations the baselines and the open-loop driver ran on
before they became callback chains:

* ``GeneratorFaasPlatform`` serves each request as one generator process
  (an ``Initialize`` hop in, a resume per step, a process-end hop out);
* ``generator_run_arrivals`` is the driver process that submitted every
  request and waited for them with ``all_of``, raced against the drain
  cutoff with ``any_of``.

Both are kept as they ran, comments aside, but for one line: the
driver waits with ``timeout_at(arrive_at)`` where it waited
``timeout(arrive_at - now)``, which could submit an ulp off the drawn
arrival (the product driver now submits on it exactly).  The cost
model and the random draws are the product's own.
"""

from repro.baselines import FaasPlatform, RequestRecord
from repro.sim.metrics import LatencyRecorder
from repro.workloads import LoadResult


class GeneratorFaasPlatform(FaasPlatform):
    """Same construction and costs; a process per request."""

    def request(self, function_name: str):
        function = self._functions.get(function_name)
        if function is None:
            raise KeyError(f"unknown function {function_name!r}")
        return self.env.process(self._serve(function))

    def _serve(self, function):
        arrived_at = self.env.now
        cold = not self.rng.bernoulli(self.hot_ratio)
        if cold:
            self.cold_requests += 1
            yield self.cpu.consume(
                self.spec.cold_start_total_seconds(self.spec.sandbox_memory_bytes)
            )
        else:
            self.hot_requests += 1
            yield self.cpu.consume(self.spec.hot_start_seconds)

        for phase in function.phases:
            if phase.kind == "compute":
                yield self.cpu.consume(phase.seconds * self.spec.compute_slowdown)
            else:
                yield self.env.timeout(phase.seconds)

        finished_at = self.env.now
        record = RequestRecord(function.name, arrived_at, finished_at, cold)
        self.records.append(record)
        self.latencies.record(record.latency)
        self.per_function_latencies[function.name].record(record.latency)
        return record


def generator_run_arrivals(
    env,
    submit,
    arrival_times,
    offered_rps=0.0,
    duration_seconds=0.0,
    warmup_until=0.0,
    drain_seconds=60.0,
):
    arrival_times = sorted(arrival_times)
    latencies = LatencyRecorder()
    state = {"completed": 0, "failed": 0}

    def finish(started, event):
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
        pending = []
        for arrive_at in arrival_times:
            if arrive_at > env.now:
                yield env.timeout_at(arrive_at)
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
