"""Unit tests for Resource, and for the Store the generator engines read.

`Store` left `repro.sim` with the generator engines; its copy in
`tests/engines/generator_engines.py` is the queue of the oracle that
`test_engine_equivalence` runs, so its semantics stay pinned here.
"""

import pytest

from repro.sim import Environment, Resource, SimulationError

from ..engines.generator_engines import Store


def test_resource_grants_up_to_capacity():
    env = Environment()
    resource = Resource(env, capacity=2)
    grant_times = []

    def worker(tag):
        request = resource.request()
        yield request
        grant_times.append((tag, env.now))
        yield env.timeout(10)
        resource.release(request)

    for tag in range(4):
        env.process(worker(tag))
    env.run()
    assert grant_times == [(0, 0), (1, 0), (2, 10), (3, 10)]


def test_resource_fifo_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def worker(tag, arrival):
        yield env.timeout(arrival)
        request = resource.request()
        yield request
        order.append(tag)
        yield env.timeout(5)
        resource.release(request)

    env.process(worker("late", 2))
    env.process(worker("early", 1))
    env.run()
    assert order == ["early", "late"]


def test_resource_count_and_fifo_wait():
    env = Environment()
    resource = Resource(env, capacity=1)
    granted = []

    def holder():
        request = resource.request()
        yield request
        yield env.timeout(5)
        resource.release(request)

    def waiter():
        yield env.timeout(1)
        request = resource.request()
        assert not request.triggered  # waits behind the holder
        yield request
        granted.append(env.now)
        resource.release(request)

    env.process(holder())
    env.process(waiter())
    env.run(until=2)
    assert resource.count == 1
    env.run()
    assert granted == [5]
    assert resource.count == 0
    # Nothing is left waiting: a fresh claim is granted synchronously.
    assert resource.request().processed


def test_resource_release_unknown_request_rejected():
    env = Environment()
    resource = Resource(env, capacity=1)
    request = resource.request()
    env.run()
    resource.release(request)
    with pytest.raises(SimulationError):
        resource.release(request)


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_store_put_then_get():
    env = Environment()
    store = Store(env)

    def producer():
        yield store.put("item")

    def consumer():
        item = yield store.get()
        return item

    env.process(producer())
    p = env.process(consumer())
    assert env.run(until=p) == "item"


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)

    def consumer():
        item = yield store.get()
        return (item, env.now)

    def producer():
        yield env.timeout(4)
        yield store.put("late")

    p = env.process(consumer())
    env.process(producer())
    assert env.run(until=p) == ("late", 4)


def test_store_fifo_ordering():
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for value in [1, 2, 3]:
            yield store.put(value)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == [1, 2, 3]


def test_store_bounded_put_blocks():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer():
        yield store.put("a")
        times.append(("a", env.now))
        yield store.put("b")
        times.append(("b", env.now))

    def consumer():
        yield env.timeout(5)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times == [("a", 0), ("b", 5)]


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=0)


def test_store_len_and_items():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    env.run()
    assert len(store) == 2
    assert store.items == [1, 2]


def test_many_consumers_each_get_distinct_items():
    env = Environment()
    store = Store(env)
    received = []

    def consumer():
        item = yield store.get()
        received.append(item)

    for _ in range(5):
        env.process(consumer())

    def producer():
        for value in range(5):
            yield store.put(value)

    env.process(producer())
    env.run()
    assert sorted(received) == [0, 1, 2, 3, 4]


def test_uncontended_request_is_born_processed():
    # Fast path: with capacity free, request() returns an event that is
    # already processed, so callback code can run synchronously instead
    # of paying a trip through the event queue.
    env = Environment()
    resource = Resource(env, capacity=1)
    request = resource.request()
    assert request.processed
    assert resource.count == 1


def test_store_get_with_stock_is_born_processed():
    env = Environment()
    store = Store(env)
    store.put("item")
    env.run()
    get = store.get()
    assert get.processed
    assert get.value == "item"
