"""Tests for engine groups: grow/shrink semantics and accounting."""

import pytest

from repro.backends import create_backend
from repro.engines import ComputeEngine, EngineGroup, Task
from repro.functions import compute_function
from repro.sim import Environment


@compute_function(compute_cost=0.01)
def slow(vfs):
    vfs.write_text("/out/out/r", "x")


@compute_function(compute_cost=0.5)
def long(vfs):
    vfs.write_text("/out/out/r", "x")


def make_group(env, initial=1):
    backend = create_backend("kvm", "linux")
    return EngineGroup(
        env,
        kind="compute",
        engine_factory=lambda group, name: ComputeEngine(env, group, backend, name=name),
        initial_count=initial,
    )


def submit(env, group, binary=slow):
    """Queue a task; the returned event fires with its outcome."""
    task = Task(
        kind="compute",
        input_sets=[],
        output_set_names=["out"],
        binary=binary,
    )
    done = env.event()
    group.submit(task, done.succeed)
    return done


def shrink(env, group):
    """Retire one engine; the returned event fires with that engine."""
    retired = env.event()
    group.shrink(retired.succeed)
    return retired


def test_initial_engine_count():
    env = Environment()
    group = make_group(env, initial=3)
    assert group.engine_count == 3
    assert len(group.engines) == 3


def test_grow_adds_capacity():
    env = Environment()
    group = make_group(env, initial=1)
    group.grow()
    tasks = [submit(env, group) for _ in range(2)]
    env.run(until=env.all_of(tasks))
    assert env.now < 0.015  # both ran in parallel
    assert group.engine_count == 2


def test_shrink_retires_exactly_one_engine():
    env = Environment()
    group = make_group(env, initial=2)
    done = shrink(env, group)
    env.run(until=done)
    assert group.engine_count == 1
    assert len(group.engines) == 1


def test_shrink_drains_queued_tasks_first():
    env = Environment()
    group = make_group(env, initial=1)
    task = submit(env, group)
    done = shrink(env, group)
    env.run(until=done)
    assert task.triggered  # task ahead of the retirement completed
    assert group.engine_count == 0


def test_shrink_below_zero_rejected():
    env = Environment()
    group = make_group(env, initial=1)
    done = shrink(env, group)
    env.run(until=done)
    with pytest.raises(ValueError):
        shrink(env, group)


def test_tasks_executed_survives_retirement():
    env = Environment()
    group = make_group(env, initial=1)
    task = submit(env, group)
    env.run(until=task)
    done = shrink(env, group)
    env.run(until=done)
    assert group.tasks_executed == 1


def test_queue_sampling():
    env = Environment()
    group = make_group(env, initial=1)
    assert group.sample_queue() == 0
    submit(env, group)
    submit(env, group)
    shrink(env, group)
    # Nothing has run yet: both tasks and the retirement are queued.
    assert group.sample_queue() == 3


def test_grow_after_shrink_recovers():
    env = Environment()
    group = make_group(env, initial=1)
    done = shrink(env, group)
    env.run(until=done)
    group.grow()
    task = submit(env, group)
    outcome = env.run(until=task)
    assert outcome.success
    assert group.engine_count == 1


def test_overlapping_shrinks_each_report_their_own_engine():
    # Two shrinks in flight at once: one takes the idle engine at once,
    # the other waits behind the short task.  Each continuation fires
    # at its own engine's retirement, with that engine.
    env = Environment()
    group = make_group(env, initial=3)
    busy, brief, idle = group.engines
    long_task = submit(env, group, long)
    short_task = submit(env, group, slow)
    retired = []

    def shrink_twice():
        for _ in range(2):
            group.shrink(lambda engine: retired.append((env.now, engine)))

    env.call_later(0.001, shrink_twice)
    env.run(until=0.002)
    assert retired == [(0.001, idle)]
    assert group.engine_count == 1 and group.engines == [busy, brief]
    env.run(until=short_task)
    short_finished_at = env.now
    env.run(until=long_task)
    assert retired == [(0.001, idle), (short_finished_at, brief)]
    assert group.engines == [busy]
    assert group.engine_count == 1
    assert group.tasks_executed == 2
