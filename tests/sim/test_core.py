"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(3.5)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 3.5
    assert env.now == 3.5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value():
    env = Environment()

    def proc():
        yield env.timeout(1)
        return "done"

    p = env.process(proc())
    assert env.run(until=p) == "done"


def test_sequential_timeouts_accumulate():
    env = Environment()
    marks = []

    def proc():
        for _ in range(4):
            yield env.timeout(0.25)
            marks.append(env.now)

    env.process(proc())
    env.run()
    assert marks == [0.25, 0.5, 0.75, 1.0]


def test_two_processes_interleave():
    env = Environment()
    order = []

    def fast():
        yield env.timeout(1)
        order.append("fast")

    def slow():
        yield env.timeout(2)
        order.append("slow")

    env.process(slow())
    env.process(fast())
    env.run()
    assert order == ["fast", "slow"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def make(tag):
        def proc():
            yield env.timeout(1)
            order.append(tag)
        return proc

    for tag in range(5):
        env.process(make(tag)())
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_wait_on_process():
    env = Environment()

    def child():
        yield env.timeout(2)
        return 42

    def parent():
        result = yield env.process(child())
        return result + 1

    p = env.process(parent())
    assert env.run(until=p) == 43


def test_wait_on_already_finished_process():
    env = Environment()

    def child():
        yield env.timeout(1)
        return "x"

    def parent(proc):
        yield env.timeout(10)
        result = yield proc
        return result

    child_proc = env.process(child())
    parent_proc = env.process(parent(child_proc))
    assert env.run(until=parent_proc) == "x"
    assert env.now == 10


def test_manual_event_succeed():
    env = Environment()
    gate = env.event()

    def opener():
        yield env.timeout(5)
        gate.succeed("open")

    def waiter():
        value = yield gate
        return (env.now, value)

    env.process(opener())
    p = env.process(waiter())
    assert env.run(until=p) == (5, "open")


def test_event_double_trigger_rejected():
    env = Environment()
    evt = env.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_propagates_into_waiter():
    env = Environment()
    evt = env.event()

    def failer():
        yield env.timeout(1)
        evt.fail(RuntimeError("boom"))

    def waiter():
        try:
            yield evt
        except RuntimeError as exc:
            return str(exc)
        return "no error"

    env.process(failer())
    p = env.process(waiter())
    assert env.run(until=p) == "boom"


def test_unhandled_process_exception_surfaces():
    env = Environment()

    def proc():
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(1)

    env.process(proc())
    env.run(until=10.5)
    assert env.now == 10.5


def test_run_until_past_time_rejected():
    env = Environment(initial_time=100)
    with pytest.raises(SimulationError):
        env.run(until=50)


def test_yield_non_event_fails_process():
    env = Environment()

    def proc():
        yield 5  # not an event

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_all_of_waits_for_everything():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="a")
        t2 = env.timeout(3, value="b")
        results = yield AllOf(env, [t1, t2])
        return (env.now, sorted(results.values()))

    p = env.process(proc())
    assert env.run(until=p) == (3, ["a", "b"])


def test_any_of_fires_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(1, value="fast")
        t2 = env.timeout(3, value="slow")
        results = yield AnyOf(env, [t1, t2])
        return (env.now, list(results.values()))

    p = env.process(proc())
    assert env.run(until=p) == (1, ["fast"])


def test_all_of_empty_fires_immediately():
    env = Environment()

    def proc():
        results = yield env.all_of([])
        return results

    p = env.process(proc())
    assert env.run(until=p) == {}


def test_all_of_duplicate_events_count_once():
    # A duplicated constituent must behave identically whatever its
    # lifecycle state at construction; the condition waits for it once.
    env = Environment()
    evt = env.event()

    def opener():
        yield env.timeout(1)
        evt.succeed("v")

    def waiter():
        results = yield AllOf(env, [evt, evt])
        return results

    env.process(opener())
    p = env.process(waiter())
    assert env.run(until=p) == {evt: "v"}


def test_all_of_duplicate_triggered_but_unprocessed_event():
    # Regression: an event that is already triggered (scheduled) but
    # not yet processed at construction used to register one callback
    # per occurrence in `events` ("double-register"); with dedupe the
    # condition fires exactly once with the event counted once.
    env = Environment()
    evt = env.event()
    evt.succeed("v")  # triggered, callbacks not yet run
    assert evt.triggered and not evt.processed

    def waiter():
        results = yield AllOf(env, [evt, evt])
        return results

    p = env.process(waiter())
    assert env.run(until=p) == {evt: "v"}


def test_all_of_duplicates_mixed_with_pending_event():
    env = Environment()
    dup = env.event()
    other = env.event()

    def opener():
        yield env.timeout(1)
        dup.succeed("a")
        yield env.timeout(1)
        other.succeed("b")

    def waiter():
        results = yield AllOf(env, [dup, other, dup])
        return (env.now, results)

    env.process(opener())
    p = env.process(waiter())
    now, results = env.run(until=p)
    assert now == 2
    assert results == {dup: "a", other: "b"}


def test_any_of_duplicate_events_fire_once():
    env = Environment()
    evt = env.event()
    evt.succeed("x")

    def waiter():
        results = yield AnyOf(env, [evt, evt])
        return results

    p = env.process(waiter())
    assert env.run(until=p) == {evt: "x"}


def test_interrupt_wakes_blocked_process():
    env = Environment()

    def victim():
        try:
            yield env.timeout(100)
            return "finished"
        except Interrupt as interrupt:
            return ("interrupted", env.now, interrupt.cause)

    def attacker(target):
        yield env.timeout(2)
        target.interrupt(cause="preempted")

    v = env.process(victim())
    env.process(attacker(v))
    assert env.run(until=v) == ("interrupted", 2, "preempted")


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


def test_active_process_visible_inside():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(1)

    p = env.process(proc())
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_run_until_event_exhaustion_error():
    env = Environment()
    never = env.event()

    def proc():
        yield env.timeout(1)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run(until=never)


def test_nested_process_chain():
    env = Environment()

    def level(depth):
        if depth == 0:
            yield env.timeout(1)
            return 1
        below = yield env.process(level(depth - 1))
        return below + 1

    p = env.process(level(10))
    assert env.run(until=p) == 11
    assert env.now == 1


def test_succeed_with_delay_fires_in_the_future():
    env = Environment()
    event = env.event()
    event.succeed("late", delay=2.5)
    seen = []
    event.callbacks.append(lambda e: seen.append((env.now, e.value)))
    env.run()
    assert seen == [(2.5, "late")]


def test_succeed_with_delay_orders_after_earlier_events():
    env = Environment()
    order = []
    delayed = env.event()
    delayed.succeed("b", delay=1.0)
    delayed.callbacks.append(lambda _e: order.append("b"))
    early = env.timeout(0.5)
    early.callbacks.append(lambda _e: order.append("a"))
    env.run()
    assert order == ["a", "b"]


def test_succeed_with_negative_delay_rejected_and_clock_never_moves_back():
    env = Environment()
    env.run(until=1.0)
    event = env.event()
    with pytest.raises(SimulationError, match="negative delay"):
        event.succeed(delay=-0.5)
    assert not event.triggered
    env.run()
    assert env.now == 1.0


def test_call_later_runs_the_call_at_its_time_in_schedule_order():
    env = Environment()
    seen = []
    env.call_later(2.0, seen.append, "late")
    env.call_later(0.5, lambda a, b: seen.append((env.now, a, b)), "x", "y")
    env.timeout(0.5).callbacks.append(lambda _e: seen.append("timeout"))
    env.call_later(0.5, seen.append, "same instant, scheduled later")
    assert env.peek() == 0.5
    env.run()
    assert seen == [(0.5, "x", "y"), "timeout", "same instant, scheduled later", "late"]
    assert env.now == 2.0


def test_call_later_is_one_counted_heap_entry():
    env = Environment()
    before = env.events_scheduled
    env.call_later(1.0, list)
    env.timeout(1.0)
    assert env.events_scheduled == before + 2
    env.step()  # a call can be stepped like any other entry


def test_call_later_negative_delay_rejected():
    env = Environment()
    with pytest.raises(SimulationError, match="negative delay"):
        env.call_later(-1e-9, list)
    assert env.peek() == float("inf")


def test_call_later_exception_surfaces_from_run():
    env = Environment()
    env.call_later(1.0, int, "not a number")
    with pytest.raises(ValueError):
        env.run()


@pytest.mark.parametrize("escaping", [KeyboardInterrupt, SystemExit])
def test_interpreter_exit_leaves_run_instead_of_failing_the_process(escaping):
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise escaping()

    process = env.process(proc())
    with pytest.raises(escaping):
        env.run()
    # Not recorded as the process's outcome, and nothing was scheduled
    # to deliver it to a waiter.
    assert not process.triggered
    assert env.peek() == float("inf")
