"""Kernel events scheduled per echo invocation: an exact, deterministic pin.

ROADMAP item 2 (hot-path reduction) is expected to *lower* these numbers
and must edit them in the same PR; any other movement is new per-invocation
event churn on the request path.
"""

from repro.cluster.manager import ClusterManager
from repro.functions import compute_function
from repro.worker import WorkerConfig, WorkerNode

INVOCATIONS = 50

ECHO_COMPOSITION = """
composition echo_once {
    compute echo uses budget_echo in(input) out(result);
    input input -> echo.input;
    output echo.result -> result;
}
"""


@compute_function(compute_cost=1e-5)
def budget_echo(vfs):
    vfs.write_bytes("/out/result/reply", vfs.read_bytes("/in/input/request"))


def events_per_invocation(node) -> float:
    node.invoke_and_run("echo_once", {"input": b"ping"})  # warm-up: plan compilation
    # Events ever scheduled, read the way tests/sim/classic_oracle.py does.
    before = node.env._seq
    for _ in range(INVOCATIONS):
        node.invoke_and_run("echo_once", {"input": b"ping"})
    return (node.env._seq - before) / INVOCATIONS


def worker_config() -> WorkerConfig:
    return WorkerConfig(total_cores=2, control_plane_enabled=False)


def test_single_worker_echo_schedules_8_events():
    worker = WorkerNode(worker_config())
    worker.frontend.register_function(budget_echo)
    worker.frontend.register_composition(ECHO_COMPOSITION)
    assert events_per_invocation(worker) == 8


def test_cluster_routed_echo_schedules_11_events():
    cluster = ClusterManager(
        worker_count=4, worker_config=worker_config(), policy="least_loaded"
    )
    cluster.register_function(budget_echo)
    cluster.register_composition(ECHO_COMPOSITION)
    assert events_per_invocation(cluster) == 11
