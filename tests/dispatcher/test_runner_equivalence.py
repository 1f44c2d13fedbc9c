"""The chain runner against the general runner, on the same chains.

`Dispatcher._compile` sends a chain-shaped composition to `_ChainRun`
on the claim that it is timing-equivalent to the general event-driven
runner.  This holds the two to it: for random chains — every edge
distribution, optionally an output bound on a node in the *middle*,
optionally transient engine faults and a task deadline — the outcome,
its virtual completion time, the retry / deadline counters and the
committed-memory series are identical when the same composition is
forced onto the general runner.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import DataItem, DataSet
from repro.dispatcher.dispatcher import Dispatcher
from repro.worker import WorkerConfig, WorkerNode

from .test_differential import _DISTRIBUTIONS, _build_chain


def _run_chain(length, item_count, distributions, key_count, bound_middle,
               fault_rate, deadline, general):
    node_names = [f"n{i}" for i in range(length)]
    worker = WorkerNode(
        WorkerConfig(
            total_cores=4,
            control_plane_enabled=False,
            transient_failure_rate=fault_rate,
            default_timeout=deadline,
            seed=7,
        )
    )
    also_bound = node_names[length // 2 - 1] if bound_middle and length >= 2 else None
    _build_chain(worker, node_names, distributions, also_bound=also_bound)
    items = [
        DataItem(f"item{i}@k{i % key_count}", f"seed{i}".encode(), key=f"k{i % key_count}")
        for i in range(item_count)
    ]
    with pytest.MonkeyPatch.context() as patch:
        if general:
            compile_plan = Dispatcher._compile
            patch.setattr(
                Dispatcher, "_compile",
                lambda self, composition: (None, compile_plan(self, composition)[1]),
            )
        result = worker.invoke_and_run("chain", {"data": DataSet("data", items)})
        worker.env.run()  # let trailing context releases land
    outputs = {
        name: sorted((item.ident, item.data) for item in data_set)
        for name, data_set in result.outputs.items()
    }
    return {
        "ok": result.ok,
        "error": str(result.error),
        "finished_at": result.finished_at,
        "outputs": outputs,
        "retries": worker.dispatcher.retries_performed,
        "deadline_expirations": worker.dispatcher.deadline_expirations,
        "tasks": worker.compute_group.tasks_executed,
        "memory": (worker.memory.series.times, worker.memory.series.values),
        "peak": worker.memory.peak_bytes,
        "drained": worker.env.now,
    }


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4),                                  # chain length
    st.integers(0, 6),                                  # item count
    st.lists(st.sampled_from(_DISTRIBUTIONS), min_size=4, max_size=4),
    st.integers(1, 3),                                  # distinct key count
    st.booleans(),                                      # bind a middle node's output too
    st.sampled_from([0.0, 0.3, 0.8]),                   # transient engine fault rate
    st.sampled_from([None, 2e-4, 1.5e-3, 1.0]),         # task deadline
)
# A fan-out handed out in the heap step of the completion that produced
# it reaches the just-freed engine first and reorders the fault draws.
@example(2, 3, [_DISTRIBUTIONS[1]] * 4, 1, False, 0.3, None)
# No items: an ``each`` edge delivers an empty set, zero instances.
@example(2, 0, [_DISTRIBUTIONS[1]] * 4, 1, False, 0.0, None)
def test_property_chain_runner_matches_general_runner(
    length, item_count, distributions, key_count, bound_middle, fault_rate, deadline
):
    args = (length, item_count, distributions, key_count, bound_middle,
            fault_rate, deadline)
    assert _run_chain(*args, general=False) == _run_chain(*args, general=True)


def test_mid_chain_bound_context_is_freed_at_consumption():
    # The case the two runners used to disagree on: a bound node in the
    # middle of a chain holds its context until its successor has copied
    # the data out, not until the composition ends.
    args = (3, 2, _DISTRIBUTIONS[:1] * 4, 1, True, 0.0, None)
    chain = _run_chain(*args, general=False)
    assert chain == _run_chain(*args, general=True)
    assert chain["ok"] and set(chain["outputs"]) == {"tap", "result"}


@pytest.mark.parametrize("distribution", _DISTRIBUTIONS[1:], ids=lambda d: d.value)
def test_empty_delivery_expands_to_no_instances_and_completes(distribution):
    # The first node writes nothing, so the ``each``/``key`` edge after
    # it expands to zero instances: the node completes with empty output
    # sets, at the same virtual time on both runners, instead of waiting
    # for instances that were never started.
    args = (3, 0, [distribution] * 4, 1, True, 0.0, None)
    chain = _run_chain(*args, general=False)
    assert chain == _run_chain(*args, general=True)
    assert chain["ok"] and chain["outputs"] == {"tap": [], "result": []}
    assert chain["tasks"] == 1
