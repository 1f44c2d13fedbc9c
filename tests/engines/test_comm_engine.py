"""Tests for communication engines: sanitization, overlap, green threads,
the per-engine request memo."""

import json

import pytest

from repro.data import DataItem, DataSet
from repro.engines import CommunicationEngine, EngineGroup, Task, comm_engine
from repro.functions import format_http_request, parse_http_response_item
from repro.net import EchoService, HttpResponse, HttpService, LatencyModel, SimulatedNetwork
from repro.sim import Environment


def setup(extra_service_seconds=0.0):
    env = Environment()
    network = SimulatedNetwork(env, LatencyModel())
    network.register(EchoService(extra_seconds=extra_service_seconds))
    group = EngineGroup(
        env, "communication", lambda group, name: CommunicationEngine(env, group, network)
    )
    (engine,) = group.engines
    return env, network, group, engine


def comm_task(env, group, request_items):
    """Queue a task; the returned event fires with its outcome."""
    task = Task(
        kind="communication",
        input_sets=[DataSet("request", request_items)],
        output_set_names=["response"],
    )
    done = env.event()
    group.submit(task, done.succeed)
    return done


def echo_request(i=0, body=b"ping"):
    return DataItem(f"r{i}", format_http_request("POST", "http://echo.internal/", body=body))


def test_single_exchange_roundtrip():
    env, _network, group, _engine = setup()
    task = comm_task(env, group, [echo_request(body=b"hello")])
    outcome = env.run(until=task)
    assert outcome.success
    envelope = parse_http_response_item(outcome.outputs[0].item("r0").data)
    assert envelope["status"] == 200
    assert envelope["body"] == b"hello"


def test_multiple_items_fan_out_in_parallel():
    env, _network, group, _engine = setup(extra_service_seconds=0.01)
    task = comm_task(env, group, [echo_request(i) for i in range(8)])
    outcome = env.run(until=task)
    assert outcome.success
    assert len(outcome.outputs[0]) == 8
    # 8 exchanges at 10ms service each, overlapped: far below 80ms.
    assert env.now < 0.04


def test_io_overlaps_across_tasks():
    env, _network, group, engine = setup(extra_service_seconds=0.02)
    first = comm_task(env, group, [echo_request(0)])
    second = comm_task(env, group, [echo_request(1)])
    env.run(until=env.all_of([first, second]))
    # Cooperative I/O: both 20ms exchanges overlap on one engine core.
    assert env.now < 0.035
    assert engine.tasks_executed == 2


def test_invalid_envelope_yields_error_item():
    env, _network, group, _engine = setup()
    bad = DataItem("bad", b"this is not json")
    task = comm_task(env, group, [bad])
    outcome = env.run(until=task)
    assert outcome.success  # the task succeeds; the item carries the error
    envelope = json.loads(outcome.outputs[0].item("bad").data)
    assert envelope["status"] == 400


def test_unsanitary_request_rejected_without_network_call():
    env, network, group, _engine = setup()
    evil = DataItem(
        "evil",
        format_http_request("GET", "http://echo.internal/a b", body=b""),
    )
    task = comm_task(env, group, [evil])
    outcome = env.run(until=task)
    envelope = json.loads(outcome.outputs[0].item("evil").data)
    assert envelope["status"] == 400
    assert network.requests_sent == 0  # never reached the network


def test_disallowed_method_rejected():
    env, network, group, _engine = setup()
    evil = DataItem("t", format_http_request("TRACE", "http://echo.internal/"))
    task = comm_task(env, group, [evil])
    outcome = env.run(until=task)
    assert json.loads(outcome.outputs[0].item("t").data)["status"] == 400
    assert network.requests_sent == 0


def test_unknown_host_becomes_502_response_item():
    env, _network, group, _engine = setup()
    request = DataItem("g", format_http_request("GET", "http://ghost.internal/"))
    task = comm_task(env, group, [request])
    outcome = env.run(until=task)
    envelope = parse_http_response_item(outcome.outputs[0].item("g").data)
    assert envelope["status"] == 502


def test_keys_preserved_on_responses():
    env, _network, group, _engine = setup()
    keyed = DataItem("k", format_http_request("GET", "http://echo.internal/"), key="shard3")
    task = comm_task(env, group, [keyed])
    outcome = env.run(until=task)
    assert outcome.outputs[0].item("k").key == "shard3"


def test_engine_counts_busy_cpu_not_network_wait():
    env, _network, group, _engine = setup(extra_service_seconds=0.05)
    task = comm_task(env, group, [echo_request()])
    outcome = env.run(until=task)
    # Busy time is microseconds of CPU, not the 50ms network wait.
    assert outcome.service_seconds < 0.001
    assert env.now > 0.05


@pytest.fixture
def parses(monkeypatch):
    """The request bytes the engine parses, one entry per parse."""
    seen = []
    real = comm_engine.parse_http_request_item

    def counting(data):
        seen.append(data)
        return real(data)

    monkeypatch.setattr(comm_engine, "parse_http_request_item", counting)
    return seen


def fresh(data: bytes) -> bytes:
    """Equal bytes in a distinct object, as another invocation formats them."""
    copy = bytes(bytearray(data))
    assert copy is not data
    return copy


def test_equal_request_bytes_are_parsed_once_per_engine(parses):
    env, network, group, _engine = setup()
    wire = format_http_request("POST", "http://echo.internal/", body=b"ping")
    first = comm_task(env, group, [DataItem("a", fresh(wire))])
    second = comm_task(env, group, [DataItem("b", fresh(wire))])
    env.run(until=env.all_of([first, second]))
    for task, name in ((first, "a"), (second, "b")):
        envelope = parse_http_response_item(task.value.outputs[0].item(name).data)
        assert (envelope["status"], envelope["body"]) == (200, b"ping")
    assert parses == [wire]
    assert network.requests_sent == 2


@pytest.mark.parametrize(
    "wire",
    [b"this is not json", format_http_request("GET", "http://echo.internal/a b")],
    ids=["malformed", "unsanitary"],
)
def test_rejected_request_gets_the_same_400_every_time(parses, wire):
    env, network, group, _engine = setup()
    tasks = [comm_task(env, group, [DataItem("bad", fresh(wire))]) for _ in range(5)]
    env.run(until=env.all_of(tasks))
    replies = {task.value.outputs[0].item("bad").data for task in tasks}
    assert len(replies) == 1
    assert json.loads(replies.pop())["status"] == 400
    assert parses == [wire]
    assert network.requests_sent == 0


def test_memo_is_bounded_and_every_request_is_served():
    env, _network, group, engine = setup()
    requests = [echo_request(i, body=b"%d" % i) for i in range(513)]
    task = comm_task(env, group, requests)
    outcome = env.run(until=task)
    bodies = [parse_http_response_item(item.data)["body"] for item in outcome.outputs[0]]
    assert bodies == [b"%d" % i for i in range(513)]
    assert len(engine._request_cache) == 512


class _HeaderMutator(HttpService):
    """Records the headers it is sent, then tries to change them."""

    def __init__(self):
        super().__init__("mutator.internal")
        self.seen = []
        self.refused = 0

    def handle(self, request):
        self.seen.append(dict(request.headers))
        try:
            request.headers["x-injected"] = "1"
        except TypeError:
            self.refused += 1
        return HttpResponse(status=200)


def test_cached_request_headers_are_read_only():
    env, network, group, _engine = setup()
    service = _HeaderMutator()
    network.register(service)
    wire = format_http_request("GET", "http://mutator.internal/", headers={"accept": "text/plain"})
    for name in ("a", "b"):
        env.run(until=comm_task(env, group, [DataItem(name, fresh(wire))]))
    assert service.seen == [{"accept": "text/plain"}] * 2
    assert service.refused == 2
