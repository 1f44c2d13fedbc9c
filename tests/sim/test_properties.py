"""Property-based tests for the simulation kernel invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment, ProcessorSharingCpu, Resource

from ..engines.generator_engines import Store

# Small random workloads: (arrival_delay, service_time) pairs.
_jobs = st.lists(
    st.tuples(
        st.floats(0.0, 2.0, allow_nan=False, allow_infinity=False),
        st.floats(0.001, 1.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(_jobs, st.integers(1, 4))
def test_property_resource_capacity_never_exceeded(jobs, capacity):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    max_seen = {"value": 0}
    completed = {"count": 0}

    def worker(delay, service):
        yield env.timeout(delay)
        request = resource.request()
        yield request
        max_seen["value"] = max(max_seen["value"], resource.count)
        yield env.timeout(service)
        resource.release(request)
        completed["count"] += 1

    for delay, service in jobs:
        env.process(worker(delay, service))
    env.run()
    assert max_seen["value"] <= capacity
    assert completed["count"] == len(jobs)
    assert resource.count == 0
    # The wait queue is empty: a fresh claim is granted synchronously.
    assert resource.request().processed


@settings(max_examples=60, deadline=None)
@given(_jobs, st.integers(1, 4))
def test_property_ps_cpu_conserves_work(jobs, cores):
    env = Environment()
    cpu = ProcessorSharingCpu(env, cores)
    finished = {"count": 0}

    def worker(delay, service):
        yield env.timeout(delay)
        yield cpu.consume(service)
        finished["count"] += 1

    for delay, service in jobs:
        env.process(worker(delay, service))
    env.run()
    total_work = sum(service for _delay, service in jobs)
    assert finished["count"] == len(jobs)
    assert abs(cpu.busy_core_seconds - total_work) < 1e-6 * max(1, len(jobs))
    assert cpu.active_jobs == 0
    # Makespan lower bounds: no job finishes before its own service
    # time, and the machine cannot do more than `cores` of work/second.
    last_arrival = max(delay for delay, _s in jobs)
    epsilon = 1e-9 * max(1.0, env.now)
    assert env.now >= max(service for _d, service in jobs) - epsilon
    assert env.now >= total_work / cores - epsilon
    assert env.now <= last_arrival + total_work + epsilon


# The queue of the generator engines the engine-equivalence property
# runs as its oracle.
@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 1000), min_size=0, max_size=30),
    st.integers(1, 5),
)
def test_property_store_fifo_conservation(items, consumers):
    env = Environment()
    store = Store(env)
    received: list[int] = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer(count):
        for _ in range(count):
            value = yield store.get()
            received.append(value)

    # Split consumption across several consumers.
    base, remainder = divmod(len(items), consumers)
    env.process(producer())
    for index in range(consumers):
        count = base + (1 if index < remainder else 0)
        env.process(consumer(count))
    env.run()
    # Every item delivered exactly once; with a single consumer order
    # is strictly FIFO.
    assert sorted(received) == sorted(items)
    if consumers == 1:
        assert received == items
    assert len(store) == 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=1, max_size=20))
def test_property_virtual_time_is_monotonic(delays):
    env = Environment()
    observed: list[float] = []

    def ticker(delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delays:
        env.process(ticker(delay))
    env.run()
    assert observed == sorted(observed)
    assert env.now == max(delays)
