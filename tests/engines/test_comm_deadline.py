"""Exchange deadlines, idempotent-only retries, and handler-fault containment."""

import json

import pytest

from repro.data import DataItem, DataSet
from repro.engines import CommunicationEngine, EngineGroup, Task
from repro.engines.comm_engine import IDEMPOTENT_METHODS, MAX_RETRIES
from repro.functions import format_http_request, parse_http_response_item
from repro.net import EchoService, LatencyModel, SimulatedNetwork
from repro.sim import Environment


def setup(extra_service_seconds=0.0):
    env = Environment()
    network = SimulatedNetwork(env, LatencyModel())
    network.register(EchoService(extra_seconds=extra_service_seconds))
    group = EngineGroup(
        env,
        "communication",
        lambda group, name: CommunicationEngine(env, group, network),
    )
    (engine,) = group.engines
    return env, network, group, engine


def comm_task(env, group, request_items, timeout=None):
    """Queue a task; the returned event fires with its outcome."""
    task = Task(
        kind="communication",
        input_sets=[DataSet("request", request_items)],
        output_set_names=["response"],
        timeout=timeout,
    )
    done = env.event()
    group.submit(task, done.succeed)
    return done


def request_item(method="GET", body=b""):
    return DataItem("r0", format_http_request(method, "http://echo.internal/", body=body))


def test_idempotency_tables():
    assert "GET" in IDEMPOTENT_METHODS
    assert "POST" not in IDEMPOTENT_METHODS


def test_fast_exchange_unaffected_by_timeout():
    env, _network, group, engine = setup()
    task = comm_task(env, group, [request_item(body=b"hi")], timeout=1.0)
    outcome = env.run(until=task)
    assert outcome.success
    envelope = parse_http_response_item(outcome.outputs[0].item("r0").data)
    assert envelope["status"] == 200
    assert engine.exchange_timeouts == 0


def test_idempotent_exchange_retried_on_timeout_then_504():
    # 50 ms of service time against a 5 ms deadline: every attempt
    # times out, GET is idempotent, so the engine retries MAX_RETRIES
    # (2) times before reporting a gateway-timeout error item.
    env, _network, group, engine = setup(extra_service_seconds=0.05)
    task = comm_task(env, group, [request_item("GET")], timeout=0.005)
    outcome = env.run(until=task)
    assert outcome.success  # the task completes; the *item* carries the error
    envelope = json.loads(outcome.outputs[0].item("r0").data)
    assert envelope["status"] == 504
    assert MAX_RETRIES == 2
    assert envelope["retried"] == 2
    assert envelope["idempotent"] is True
    assert engine.exchange_timeouts == 3  # initial attempt + 2 retries


def test_non_idempotent_exchange_not_retried_on_timeout():
    env, _network, group, engine = setup(extra_service_seconds=0.05)
    task = comm_task(env, group, [request_item("POST", body=b"pay")], timeout=0.005)
    outcome = env.run(until=task)
    assert outcome.success
    envelope = json.loads(outcome.outputs[0].item("r0").data)
    assert envelope["status"] == 504
    assert envelope["retried"] == 0  # POST must never be re-sent
    assert envelope["idempotent"] is False
    assert engine.exchange_timeouts == 1


def test_timed_out_exchange_does_not_block_later_tasks():
    env, _network, group, engine = setup(extra_service_seconds=0.05)
    slow = comm_task(env, group, [request_item("POST")], timeout=0.005)
    fast = comm_task(env, group, [request_item("GET", body=b"ok")])
    env.run(until=slow)
    outcome = env.run(until=fast)
    assert outcome.success
    envelope = parse_http_response_item(outcome.outputs[0].item("r0").data)
    assert envelope["status"] == 200


def _broken_handler(engine, item, timeout, on_done):
    raise RuntimeError("handler bug")


def test_raising_handler_fails_completion_instead_of_hanging(monkeypatch):
    # Regression: an exchange handler that raises used to leave
    # task pending forever, deadlocking the dispatcher.
    monkeypatch.setattr(CommunicationEngine, "_http_exchange", _broken_handler)
    env, _network, group, engine = setup()
    task = comm_task(env, group, [request_item()])
    outcome = env.run(until=task)  # returns => no hang
    assert not outcome.success
    assert isinstance(outcome.error, RuntimeError)
    assert "handler bug" in str(outcome.error)
    assert not outcome.transient
    assert engine.handler_faults == 1


def test_raising_handler_surfaces_as_node_failure_at_invocation_level(monkeypatch):
    from repro.functions import compute_function, write_item
    from repro.worker import WorkerConfig, WorkerNode

    monkeypatch.setattr(CommunicationEngine, "_http_exchange", _broken_handler)
    worker = WorkerNode(WorkerConfig(total_cores=4, control_plane_enabled=False))
    worker.network.register(EchoService())

    @compute_function(name="cd_gen", compute_cost=1e-5)
    def gen(vfs):
        write_item(vfs, "request", "r", format_http_request("GET", "http://echo.internal/"))

    worker.frontend.register_function(gen)
    worker.frontend.register_composition(
        """
        composition cd_fetch {
            compute g uses cd_gen in(seed) out(request);
            comm c;
            input seed -> g.seed;
            g.request -> c.request [all];
            output c.response -> response;
        }
        """
    )
    result = worker.invoke_and_run("cd_fetch", {"seed": b""})
    assert not result.ok  # NodeFailure propagated, simulation terminated
    assert "handler bug" in str(result.error)
    assert worker.dispatcher.retries_performed == 0  # handler bugs are not transient
