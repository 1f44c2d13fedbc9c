"""Unit tests for the discrete-event simulation kernel."""

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    SimulationError,
)
from repro.sim import core

from ..engines.generator_engines import succeed_later


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


def test_timeout_at_lands_on_the_absolute_time():
    env = Environment(initial_time=0.784)
    assert env.now + (3.73 - env.now) != 3.73  # a relative timeout misses it
    event = env.timeout_at(3.73, "done")
    assert env.run(until=event) == "done"
    assert env.now == 3.73
    with pytest.raises(SimulationError):
        env.timeout_at(3.0)


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


def test_interrupt_is_gone():
    # Nothing in the program interrupts a process: work that may be
    # abandoned is a scheduled call or a raced event instead.
    with pytest.raises(ImportError):
        from repro.sim import Interrupt  # noqa: F401
    with pytest.raises(ImportError):
        from repro.sim.core import Interrupt  # noqa: F401, F811
    assert not hasattr(Environment(), "active_process")


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


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


# The kernel's delayed succeed left with the generator engines; it lives
# on in their oracle, which the engine-equivalence property runs.


def test_succeed_with_delay_fires_in_the_future():
    env = Environment()
    event = env.event()
    succeed_later(event, "late", delay=2.5)
    seen = []
    event.callbacks.append(lambda e: seen.append((env.now, e.value)))
    env.run()
    assert seen == [(2.5, "late")]


def test_succeed_with_delay_orders_after_earlier_events():
    env = Environment()
    order = []
    delayed = env.event()
    succeed_later(delayed, "b", delay=1.0)
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
        succeed_later(event, delay=-0.5)
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


def test_call_at_lands_on_the_absolute_time_as_one_counted_entry():
    env = Environment()
    env.call_later(0.0024, list)
    env.step()
    seen = []
    before = env.events_scheduled
    env.call_at(0.0067, lambda: seen.append(env.now))
    assert env.events_scheduled == before + 1
    env.run()
    # call_later(0.0067 - now) would land on 0.006699999999999999.
    assert seen == [0.0067]
    with pytest.raises(SimulationError, match="in the past"):
        env.call_at(0.0066, list)


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


_NAN = float("nan")


@pytest.mark.parametrize("schedule", [
    lambda env: env.call_later(_NAN, list),
    lambda env: env.call_at(_NAN, list),
    lambda env: env.call_at_each(list, [(_NAN, ())]),
    lambda env: env.timeout(_NAN),
    lambda env: env.timeout_at(_NAN),
    lambda env: env.run(until=_NAN),
], ids=["call_later", "call_at", "call_at_each", "timeout", "timeout_at", "run_until"])
def test_nan_time_rejected(schedule):
    # NaN compares false with everything, so only a negated guard
    # (`not when >= now`) keeps it off the heap, where it would fire
    # before earlier-scheduled entries.
    env = Environment()
    seen = []
    env.call_later(0.5, seen.append, 0.5)
    env.call_later(1.0, seen.append, 1.0)
    with pytest.raises(SimulationError):
        schedule(env)
    assert env.events_scheduled == 2
    env.run()
    assert seen == [0.5, 1.0]
    assert env.now == 1.0


def test_infinite_time_stays_allowed():
    env = Environment()
    seen = []
    env.call_later(float("inf"), seen.append, "later")
    env.call_at(float("inf"), seen.append, "at")
    env.call_at_each(seen.append, [(float("inf"), ("each",))])
    env.timeout(float("inf")).callbacks.append(lambda _e: seen.append("timeout"))
    env.timeout_at(float("inf")).callbacks.append(lambda _e: seen.append("timeout_at"))
    env.run(until=float("inf"))
    assert seen == ["later", "at", "each", "timeout", "timeout_at"]


def test_call_at_each_holds_one_entry_and_rejects_a_bad_schedule():
    env = Environment()
    env.run(until=1.0)
    seen = []
    env.call_at_each(lambda i: seen.append((env.now, i)), [(1.0, (0,)), (2.0, (1,)), (2.0, (2,))])
    assert env.events_scheduled == 3
    assert len(env._queue) == 1
    with pytest.raises(SimulationError, match="0.5 is before 1.0"):
        env.call_at_each(list, [(0.5, ())])
    with pytest.raises(SimulationError, match="2.5 is before 3.0"):
        env.call_at_each(list, [(3.0, ()), (2.5, ())])
    env.call_at_each(list, [])
    assert env.events_scheduled == 3
    env.run()
    assert seen == [(1.0, 0), (2.0, 1), (2.0, 2)]


# -- the firing contract ------------------------------------------------------
#
# Every entry goes onto the heap under (time, push order) and the heap
# pops it in that order.  A pushed key is never below a popped one (its
# time is at least now and its sequence number is the next one), so the
# whole run pops every pushed key in sorted order.

_TIMES = st.sampled_from([0.0, 0.0, 0.25, 0.5])
_KINDS = st.sampled_from(["later", "at", "succeed", "fail", "timeout", "process", "all_of"])
# (kind, delay, operations performed when this one fires)
_OPS = st.recursive(
    st.tuples(_KINDS, _TIMES, st.just(())),
    lambda children: st.tuples(_KINDS, _TIMES, st.lists(children, max_size=3).map(tuple)),
    max_leaves=16,
)


def _count(ops) -> int:
    return sum(1 + _count(children) for _kind, _delay, children in ops)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, min_size=1, max_size=6))
def test_property_entries_fire_in_time_then_push_order(program):
    env = Environment()
    pushed, popped, fired = [], [], []

    def push(queue, entry):
        pushed.append(entry[:2])
        heappush(queue, entry)

    def pop(queue):
        entry = heappop(queue)
        popped.append(entry[:2])
        return entry

    def fire(expected, children):
        assert env.now == expected
        fired.append(expected)
        for child in children:
            perform(child)

    def perform(op):
        kind, delay, children = op
        now = env.now
        if kind == "later":
            env.call_later(delay, fire, now + delay, children)
        elif kind == "at":
            env.call_at(now + delay, fire, now + delay, children)
        elif kind == "succeed":
            event = env.event()
            event.callbacks.append(lambda _e: fire(now, children))
            event.succeed()
        elif kind == "fail":
            failing = env.event()

            def catch():
                try:
                    yield failing
                except ValueError:
                    fire(now + delay, children)

            env.process(catch())
            env.call_later(delay, failing.fail, ValueError())
        elif kind == "timeout":
            env.timeout(delay).callbacks.append(lambda _e: fire(now + delay, children))
        elif kind == "process":
            def wait():
                yield env.timeout(delay)
                fire(now + delay, children)

            env.process(wait())
        else:
            both = env.all_of([env.timeout(delay), env.timeout(0.0)])
            both.callbacks.append(lambda _e: fire(now + delay, children))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "heappush", push)
        patch.setattr(core, "heappop", pop)
        for op in program:
            perform(op)
        env.run()
    assert [seq for _when, seq in pushed] == list(range(len(pushed)))
    assert popped == sorted(pushed)
    assert env.events_scheduled == len(pushed)
    assert len(fired) == _count(program)


_INSTANTS = st.sampled_from([0.0, 0.25, 0.25, 0.5, 0.75])


@settings(max_examples=200, deadline=None)
@given(
    start=st.sampled_from([0.0, 0.25]),
    arrivals=st.lists(st.tuples(_INSTANTS, st.sampled_from(["", "later0", "at_now", "later"])),
                      max_size=8),
    before=st.lists(_INSTANTS, max_size=4),
    after=st.lists(_INSTANTS, max_size=4),
    pause=st.sampled_from([None, 0.25, 0.5]),
)
def test_property_call_at_each_is_consecutive_call_ats(start, arrivals, before, after, pause):
    arrivals = sorted((start + t, spawn) for t, spawn in arrivals)

    def run(batched):
        env = Environment()
        env.run(until=start)
        log = []

        def note(label):
            log.append((label, env.now))

        def arrive(i, spawn):
            note(("arrival", i))
            if spawn == "later0":
                env.call_later(0.0, note, ("later0", i))
            elif spawn == "at_now":
                env.call_at(env.now, note, ("at_now", i))
            elif spawn == "later":
                env.call_later(0.25, note, ("later", i))

        for t in before:
            env.call_at(start + t, note, ("before", t))
        if batched:
            env.call_at_each(arrive, [(t, (i, spawn)) for i, (t, spawn) in enumerate(arrivals)])
        else:
            for i, (t, spawn) in enumerate(arrivals):
                env.call_at(t, arrive, i, spawn)
        for t in after:
            env.call_at(start + t, note, ("after", t))
        if pause is not None:
            env.run(until=start + pause)
            note("paused")
        env.run()
        return log, env.events_scheduled, env.now

    assert run(batched=True) == run(batched=False)
