"""Kernel events scheduled per echo invocation: an exact, deterministic pin.

The request path is continuation-passing (docs/architecture.md): two
frontend calls, the engine's queue hand-off and the task completion are
all a bare worker schedules, plus the event `invoke()` hands back; the
cluster adds its routing call.  Any movement is new per-invocation event
churn on the request path, and no `Process` may come back onto it.

`budget_echo` reads an item the frontend never wrote (raw bytes become
an item named after the input set), so the first two pins cover the
path where the task fails and its context is released in place; the
hedging pin uses an echo that succeeds, which adds the zero-delay call
that releases the producer's context.
"""

import pytest

from repro.cluster.manager import ClusterManager
from repro.functions import compute_function
from repro.sim import core
from repro.worker import WorkerConfig, WorkerNode

INVOCATIONS = 50

ECHO_COMPOSITION = """
composition echo_once {
    compute echo uses budget_echo in(input) out(result);
    input input -> echo.input;
    output echo.result -> result;
}
"""

GRAY_ECHO_COMPOSITION = """
composition gray_echo {
    compute echo uses budget_gray_echo in(input) out(result);
    input input -> echo.input;
    output echo.result -> result;
}
"""


@compute_function(compute_cost=1e-5)
def budget_echo(vfs):
    vfs.write_bytes("/out/result/reply", vfs.read_bytes("/in/input/request"))


@compute_function(compute_cost=1e-5)
def budget_gray_echo(vfs):
    vfs.write_bytes("/out/result/reply", vfs.read_bytes("/in/input/input"))


@pytest.fixture
def processes_created(monkeypatch):
    """Every `Process` constructed while the test runs."""
    created = []
    original = core.Process.__init__

    def counting_init(self, env, generator):
        created.append(generator)
        original(self, env, generator)

    monkeypatch.setattr(core.Process, "__init__", counting_init)
    return created


def events_per_invocation(node, processes_created, composition="echo_once") -> float:
    node.invoke_and_run(composition, {"input": b"ping"})  # warm-up: plan compilation
    del processes_created[:]
    before = node.env.events_scheduled
    for _ in range(INVOCATIONS):
        node.invoke_and_run(composition, {"input": b"ping"})
    assert processes_created == []
    return (node.env.events_scheduled - before) / INVOCATIONS


def worker_config(**overrides) -> WorkerConfig:
    return WorkerConfig(total_cores=2, control_plane_enabled=False, **overrides)


def test_single_worker_echo_event_budget(processes_created):
    worker = WorkerNode(worker_config())
    worker.frontend.register_function(budget_echo)
    worker.frontend.register_composition(ECHO_COMPOSITION)
    assert events_per_invocation(worker, processes_created) == 5


def test_cluster_routed_echo_event_budget(processes_created):
    cluster = ClusterManager(
        worker_count=4, worker_config=worker_config(), policy="least_loaded"
    )
    cluster.register_function(budget_echo)
    cluster.register_composition(ECHO_COMPOSITION)
    assert events_per_invocation(cluster, processes_created) == 6


def test_hedging_cluster_with_deadline_event_budget(processes_created):
    # The cluster_gray shape: latency health, hedging and a task
    # deadline.  On top of the routed echo: the context release, the
    # deadline timer and the hedge timer.  The latency history is seeded
    # with a p95 far above the echo's, so neither timer ever finds work.
    cluster = ClusterManager(
        worker_count=4,
        worker_config=worker_config(default_timeout=0.05),
        policy="least_loaded",
        latency_health=True,
        hedge=True,
        hedge_budget_fraction=1.0,
    )
    cluster.register_function(budget_gray_echo)
    cluster.register_composition(GRAY_ECHO_COMPOSITION)
    for _ in range(cluster.hedge_min_samples):
        cluster.latencies.record(1.0)
    assert events_per_invocation(cluster, processes_created, "gray_echo") == 9
    assert cluster.hedges_issued == 0
    assert cluster.latencies.count == cluster.hedge_min_samples + 1 + INVOCATIONS
