"""Kernel events scheduled per invocation: exact, deterministic pins.

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

The DAG pins (one SSB query, one logproc invocation) run through the
communication engines and the network, and no `Process` comes from
anywhere: a composition run is one callback state machine however it
fans out or joins, an engine is a state object its group hands tasks
to, and a green thread is a chain of scheduled calls.  Each zero-delay
hop left on those paths keeps an order the former processes had; the
pins below say which.  Nor does the control plane start a process when
it moves a core between the engine groups.
"""

import pytest

from repro.apps import DEFAULT_TOKEN, register_logproc_app, setup_log_services
from repro.cluster.manager import HEDGE_MIN_SAMPLES, ClusterManager
from repro.functions import compute_function
from repro.net import ObjectStoreService
from repro.query import generate_ssb_tables, load_ssb_to_store, register_ssb_query
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
    for _ in range(HEDGE_MIN_SAMPLES):
        cluster.latencies.record(1.0)
    assert events_per_invocation(cluster, processes_created, "gray_echo") == 9
    assert cluster.hedges_issued == 0
    assert cluster.latencies.count == HEDGE_MIN_SAMPLES + 1 + INVOCATIONS


def dag_events_per_invocation(worker, processes_created, composition, inputs, count) -> float:
    assert worker.invoke_and_run(composition, inputs).ok  # warm-up: plan, binary cache
    del processes_created[:]
    before = worker.env.events_scheduled
    for _ in range(count):
        assert worker.invoke_and_run(composition, inputs).ok
    assert processes_created == []
    return (worker.env.events_scheduled - before) / count


# A communication task costs its engine's parse timeout, the network's
# three legs per request (request, service, response) and these
# zero-delay hops:
# - the hand-off, when the task meets an idle engine: it starts after
#   whatever the submitting step still does, as the woken queue read did;
# - the green thread's start: after the engine has taken its next task;
# - with several items, one start for all of them (after the task's own
#   start) and the last item's exit (after that item's step);
# - the completion: the caller resumes after the green thread's step.
# The `_handle` process's own completion, which nothing waited on, is
# gone; so are the per-item starts and exits but one each.


def test_ssb_query_event_budget(processes_created):
    # gen -> (fetch_lo, fetch_dims) -> 4 partials -> final.  Six of the
    # entries are the runner's own calls (two batches, four context
    # releases); the process per vertex made it 106, the process per
    # green thread and per request item 70.
    worker = WorkerNode(WorkerConfig(total_cores=8, control_plane_enabled=False))
    store = ObjectStoreService()
    worker.network.register(store)
    load_ssb_to_store(generate_ssb_tables(scale_factor=0.001, seed=1), store, partitions=4)
    composition = register_ssb_query(worker, "Q2.1", partitions=4)
    assert dag_events_per_invocation(
        worker, processes_created, composition, {"query": b"Q2.1"}, 3
    ) == 56


def test_logproc_event_budget(processes_created):
    # A chain with an ``each`` fan-out.  Six of the entries are the
    # runner's own calls: one batch (the four fetches) and a context
    # release per node.  Five communication tasks of one item each, on
    # one engine: 7 entries for the first task of a burst, 6 for the
    # three it takes from the queue; with a `_handle` process each, 52.
    worker = WorkerNode(WorkerConfig(total_cores=4, control_plane_enabled=False))
    setup_log_services(worker, shard_count=4, lines_per_shard=20)
    composition = register_logproc_app(worker)
    assert dag_events_per_invocation(
        worker, processes_created, composition, {"token": DEFAULT_TOKEN.encode()}, 5
    ) == 47


@compute_function(compute_cost=0.01)
def budget_slow(vfs):
    vfs.write_bytes("/out/result/reply", vfs.read_bytes("/in/input/input"))


def test_control_plane_moves_cores_without_processes(processes_created):
    # The allocator's epoch is a scheduled call, and a shrink reports
    # its retired engine through a continuation: moving a core between
    # the groups starts no process, nor does the engine grown.
    worker = WorkerNode(WorkerConfig(total_cores=4))
    worker.frontend.register_function(budget_slow)
    worker.frontend.register_composition(
        ECHO_COMPOSITION.replace("echo_once", "slow_once").replace("budget_echo", "budget_slow")
    )
    done = [worker.frontend.invoke("slow_once", {"input": b"x"}) for _ in range(40)]
    worker.env.run(until=worker.env.all_of(done))
    assert all(event.value.ok for event in done)
    assert worker.allocator.reassignments
    assert processes_created == []
