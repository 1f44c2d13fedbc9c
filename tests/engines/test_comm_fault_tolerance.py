"""Tests for §6.1 communication-function fault tolerance.

Idempotent HTTP methods (GET/HEAD/PUT/DELETE) are transparently retried
after transient network failures; non-idempotent methods (POST) surface
the failure to the user instead of risking duplicated side effects.
"""

import json

from repro.data import DataItem, DataSet
from repro.engines import CommunicationEngine, EngineGroup, Task
from repro.engines.comm_engine import IDEMPOTENT_METHODS
from repro.functions import format_http_request, parse_http_response_item
from repro.net import EchoService, LatencyModel, SimulatedNetwork
from repro.sim import Environment, Rng


def setup(failure_rate, seed=1, max_retries=2):
    env = Environment()
    network = SimulatedNetwork(env, LatencyModel())
    network.register(EchoService())
    group = EngineGroup(
        env,
        "communication",
        lambda group, name: CommunicationEngine(
            env,
            group,
            network,
            failure_rng=Rng(seed),
            transient_failure_rate=failure_rate,
            max_retries=max_retries,
        ),
    )
    (engine,) = group.engines
    return env, network, group, engine


def run_one(env, group, method="GET", body=b""):
    task = Task(
        kind="communication",
        input_sets=[DataSet("request", [
            DataItem("r", format_http_request(method, "http://echo.internal/", body=body))
        ])],
        output_set_names=["response"],
    )
    done = env.event()
    group.submit(task, done.succeed)
    outcome = env.run(until=done)
    return parse_http_response_item(outcome.outputs[0].item("r").data)


def test_idempotent_methods_set():
    assert "GET" in IDEMPOTENT_METHODS
    assert "PUT" in IDEMPOTENT_METHODS
    assert "POST" not in IDEMPOTENT_METHODS


def test_no_failures_no_retries():
    env, _network, group, engine = setup(failure_rate=0.0)
    envelope = run_one(env, group)
    assert envelope["status"] == 200
    assert engine.retries_performed == 0


def test_get_retried_through_transient_failures():
    # Failure rate 0.5 with 2 retries: some exchanges need retries yet
    # ultimately succeed for most requests.
    env, _network, group, engine = setup(failure_rate=0.5, seed=3)
    statuses = [run_one(env, group)["status"] for _ in range(30)]
    assert engine.retries_performed > 0
    assert statuses.count(200) > 20


def test_post_never_retried():
    env, network, group, engine = setup(failure_rate=1.0)
    envelope = run_one(env, group, method="POST", body=b"side-effect")
    assert envelope["status"] == 503
    assert envelope["idempotent"] is False
    assert envelope["retried"] == 0
    assert engine.retries_performed == 0
    # The failed exchange never reached the service.
    assert network.requests_sent == 0


def test_get_gives_up_after_max_retries():
    env, _network, group, engine = setup(failure_rate=1.0, max_retries=3)
    envelope = run_one(env, group)
    assert envelope["status"] == 503
    assert envelope["idempotent"] is True
    assert envelope["retried"] == 3
    assert engine.retries_performed == 3


def test_retries_cost_time():
    env_clean, _n1, group_clean, _e1 = setup(failure_rate=0.0)
    run_one(env_clean, group_clean)
    clean_time = env_clean.now
    env_flaky, _n2, group_flaky, _e2 = setup(failure_rate=1.0, max_retries=3)
    run_one(env_flaky, group_flaky)
    # Four failed connection attempts each cost a round trip.
    assert env_flaky.now > clean_time


def test_worker_level_comm_failure_knob():
    from repro.functions import compute_function, read_items, write_item
    from repro.worker import WorkerConfig, WorkerNode

    worker = WorkerNode(
        WorkerConfig(total_cores=4, control_plane_enabled=False, comm_failure_rate=0.4, seed=9)
    )
    worker.network.register(EchoService())

    @compute_function(compute_cost=1e-5)
    def gen(vfs):
        write_item(vfs, "request", "r", format_http_request("GET", "http://echo.internal/"))

    @compute_function(compute_cost=1e-5)
    def check(vfs):
        envelope = parse_http_response_item(read_items(vfs, "response")[0].data)
        write_item(vfs, "out", "status", str(envelope["status"]).encode())

    worker.frontend.register_function(gen)
    worker.frontend.register_function(check)
    worker.frontend.register_composition("""
        composition flaky_fetch {
            compute g uses gen in(seed) out(request);
            comm c;
            compute k uses check in(response) out(out);
            input seed -> g.seed;
            g.request -> c.request [all];
            c.response -> k.response [all];
            output k.out -> out;
        }
    """)
    successes = 0
    for _ in range(10):
        result = worker.invoke_and_run("flaky_fetch", {"seed": b""})
        assert result.ok
        if result.output("out").item("status").data == b"200":
            successes += 1
    # Retries push the success rate far above the raw 60% per attempt.
    assert successes >= 8
