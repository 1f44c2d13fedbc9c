"""Tests for compute engines: run-to-completion, failures, retirement."""

import pytest

from repro.backends import create_backend
from repro.engines import ComputeEngine, EngineGroup, Task
from repro.functions import compute_function, purity_guard
from repro.data import DataItem, DataSet
from repro.sim import Environment, Rng


@compute_function(compute_cost=0.01)
def work(vfs):
    vfs.write_text("/out/out/r", "done")


@compute_function()
def buggy(vfs):
    raise ValueError("user bug")


def make_group(env, count=1, **kwargs):
    backend = create_backend("kvm", "linux")
    return EngineGroup(
        env,
        "compute",
        lambda group, name: ComputeEngine(env, group, backend, name=name, **kwargs),
        initial_count=count,
    )


def submit(env, group, binary, inputs=None):
    """Queue a task; the returned event fires with its outcome."""
    task = Task(
        kind="compute",
        input_sets=inputs or [],
        output_set_names=["out"],
        binary=binary,
    )
    done = env.event()
    group.submit(task, done.succeed)
    return done


def test_engine_executes_task_and_charges_time():
    env = Environment()
    group = make_group(env)
    (engine,) = group.engines
    outcome = env.run(until=submit(env, group, work))
    assert outcome.success
    assert outcome.outputs[0].item("r").data == b"done"
    assert env.now >= 0.01  # compute cost charged as virtual time
    assert engine.tasks_executed == 1
    assert outcome.service_seconds >= 0.01


def test_run_to_completion_serializes_tasks():
    env = Environment()
    group = make_group(env)
    submit(env, group, work)
    second = submit(env, group, work)
    env.run(until=second)
    # One engine, two 10ms tasks: strictly sequential.
    assert env.now >= 0.02


def test_two_engines_parallelize():
    env = Environment()
    group = make_group(env, count=2)
    done = [submit(env, group, work) for _ in range(2)]
    env.run(until=env.all_of(done))
    assert env.now < 0.015  # ran in parallel


def test_user_failure_reported_not_raised():
    env = Environment()
    group = make_group(env)
    outcome = env.run(until=submit(env, group, buggy))
    assert not outcome.success
    assert not outcome.transient
    assert "user bug" in str(outcome.error)


def test_transient_fault_injection():
    env = Environment()
    group = make_group(env, failure_rng=Rng(7), transient_failure_rate=1.0)
    outcome = env.run(until=submit(env, group, work))
    assert not outcome.success
    assert outcome.transient


def test_shutdown_sentinel_stops_engine():
    env = Environment()
    group = make_group(env)
    (engine,) = group.engines
    task = submit(env, group, work)
    retired = env.event()
    group.shrink(retired.succeed)
    assert env.run(until=retired) is engine
    # The task ahead of the retirement was completed first.
    assert task.triggered
    assert engine.tasks_executed == 1


def test_task_requires_binary():
    with pytest.raises(ValueError, match="binary"):
        Task(kind="compute", input_sets=[], output_set_names=[])


def test_task_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        Task(kind="gpu", input_sets=[], output_set_names=[])


def test_task_input_bytes():
    task = Task(
        kind="compute",
        input_sets=[DataSet("a", [DataItem("x", b"1234")])],
        output_set_names=[],
        binary=work,
    )
    assert task.input_bytes == 4


@compute_function()
def sneaky(vfs):
    open("/etc/passwd")


def test_batch_guard_executes_and_restores_on_shutdown():
    # The engine-scoped purity guard (docs in repro.functions.purity):
    # one outer guard held across a batch of engine runs makes each
    # run's own guard a counter bump, and leaving it restores the real
    # builtins.
    import builtins

    original = builtins.open
    env = Environment()
    group = make_group(env)
    with purity_guard():
        outcome = env.run(until=submit(env, group, work))
    assert outcome.success
    assert builtins.open is original


def test_batch_guard_still_blocks_syscalls():
    env = Environment()
    group = make_group(env)
    with purity_guard():
        outcome = env.run(until=submit(env, group, sneaky))
    assert not outcome.success
    assert "cannot use open" in str(outcome.error)
