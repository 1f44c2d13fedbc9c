"""Tests for the key-value (TCP text protocol) communication function."""

import json

import pytest

from repro.data import DataItem, DataSet
from repro.engines import CommunicationEngine, EngineGroup, Task
from repro.net import (
    KeyValueStoreService,
    LatencyModel,
    SanitizationError,
    SimulatedNetwork,
    format_kv_request,
    parse_kv_request_item,
    parse_kv_response_item,
    sanitize_kv_request,
)
from repro.functions import compute_function, read_items, write_item
from repro.sim import Environment
from repro.worker import WorkerConfig, WorkerNode


# -- envelope + sanitizer ----------------------------------------------------


def test_envelope_roundtrip():
    raw = format_kv_request("set", "cache.internal", "user:1", b"\x00\x01")
    envelope = parse_kv_request_item(raw)
    assert envelope["op"] == "set"
    assert envelope["host"] == "cache.internal"
    assert envelope["key"] == "user:1"
    assert envelope["value"] == b"\x00\x01"


def test_envelope_missing_fields_rejected():
    with pytest.raises(ValueError, match="missing"):
        parse_kv_request_item(b'{"op": "get"}')


def test_sanitizer_accepts_valid():
    envelope = parse_kv_request_item(format_kv_request("get", "cache.internal", "k"))
    assert sanitize_kv_request(envelope) is envelope


@pytest.mark.parametrize("op", ["flush_all", "stats", "GET", ""])
def test_sanitizer_rejects_bad_ops(op):
    envelope = {"op": op, "host": "cache.internal", "key": "k", "value": b""}
    with pytest.raises(SanitizationError, match="operation"):
        sanitize_kv_request(envelope)


def test_sanitizer_rejects_bad_keys():
    base = {"op": "get", "host": "cache.internal", "value": b""}
    with pytest.raises(SanitizationError, match="empty"):
        sanitize_kv_request({**base, "key": ""})
    with pytest.raises(SanitizationError, match="250"):
        sanitize_kv_request({**base, "key": "x" * 251})
    with pytest.raises(SanitizationError, match="whitespace"):
        sanitize_kv_request({**base, "key": "has space"})
    with pytest.raises(SanitizationError, match="whitespace"):
        sanitize_kv_request({**base, "key": "ctrl\x01char"})


def test_sanitizer_rejects_bad_host_and_huge_value():
    with pytest.raises(SanitizationError, match="host"):
        sanitize_kv_request({"op": "get", "host": "bad host", "key": "k", "value": b""})
    with pytest.raises(SanitizationError, match="1 MiB"):
        sanitize_kv_request({
            "op": "set", "host": "cache.internal", "key": "k",
            "value": b"x" * ((1 << 20) + 1),
        })


# -- service semantics ---------------------------------------------------------


def test_service_get_set_delete_incr():
    service = KeyValueStoreService()
    assert service.handle_kv("get", "missing", b"")[0] == 404
    assert service.handle_kv("set", "k", b"v")[0] == 200
    status, value, reason = service.handle_kv("get", "k", b"")
    assert (status, value, reason) == (200, b"v", "hit")
    assert service.handle_kv("delete", "k", b"")[0] == 200
    assert service.handle_kv("delete", "k", b"")[0] == 404
    assert service.handle_kv("incr", "n", b"5") == (200, b"5", "incremented")
    assert service.handle_kv("incr", "n", b"")[1] == b"6"
    assert service.handle_kv("incr", "n", b"nan")[0] == 400


def test_service_fast():
    service = KeyValueStoreService()
    assert service.service_seconds(100) < 1e-3


# -- engine-level exchange -----------------------------------------------------


def kv_task(env, group, items):
    """Queue a kv task; the returned event fires with its outcome."""
    task = Task(
        kind="communication",
        input_sets=[DataSet("request", items)],
        output_set_names=["response"],
        protocol="kv",
    )
    done = env.event()
    group.submit(task, done.succeed)
    return done


def setup_engine():
    env = Environment()
    network = SimulatedNetwork(env, LatencyModel())
    store = KeyValueStoreService()
    network.register(store)
    group = EngineGroup(
        env, "communication", lambda group, name: CommunicationEngine(env, group, network)
    )
    return env, network, store, group


def test_engine_kv_set_then_get():
    env, _network, store, group = setup_engine()
    set_task = kv_task(env, group, [
        DataItem("w", format_kv_request("set", "cache.internal", "greeting", b"hello"))
    ])
    env.run(until=set_task)
    assert store.get("greeting") == b"hello"
    get_task = kv_task(env, group, [
        DataItem("r", format_kv_request("get", "cache.internal", "greeting"))
    ])
    outcome = env.run(until=get_task)
    envelope = parse_kv_response_item(outcome.outputs[0].item("r").data)
    assert envelope["status"] == 200
    assert envelope["value"] == b"hello"


def test_engine_kv_sanitization_blocks_before_network():
    env, network, _store, group = setup_engine()
    task = kv_task(env, group, [
        DataItem("bad", format_kv_request("get", "cache.internal", "has space"))
    ])
    outcome = env.run(until=task)
    assert json.loads(outcome.outputs[0].item("bad").data)["status"] == 400
    assert network.requests_sent == 0


def test_engine_kv_unknown_host_502():
    env, _network, _store, group = setup_engine()
    task = kv_task(env, group, [
        DataItem("g", format_kv_request("get", "ghost.internal", "k"))
    ])
    outcome = env.run(until=task)
    assert parse_kv_response_item(outcome.outputs[0].item("g").data)["status"] == 502


def test_engine_unknown_protocol_rejected():
    env, _network, _store, group = setup_engine()
    task = Task(
        kind="communication",
        input_sets=[DataSet("request", [DataItem("x", b"whatever")])],
        output_set_names=["response"],
        protocol="smtp",
    )
    done = env.event()
    group.submit(task, done.succeed)
    outcome = env.run(until=done)
    assert json.loads(outcome.outputs[0].item("x").data)["status"] == 400


def test_kv_faster_than_http_exchange():
    # The in-memory store answers in tens of µs vs ms-scale HTTP services.
    env, _network, _store, group = setup_engine()
    task = kv_task(env, group, [DataItem("r", format_kv_request("get", "cache.internal", "k"))])
    env.run(until=task)
    assert env.now < 1e-3


# -- full composition with a kv comm node ----------------------------------------


def test_kv_protocol_in_composition():
    worker = WorkerNode(WorkerConfig(total_cores=4, control_plane_enabled=False))
    store = KeyValueStoreService()
    store.put("counter", b"41")
    worker.network.register(store)

    @compute_function(compute_cost=1e-5)
    def gen(vfs):
        write_item(vfs, "request", "r", format_kv_request("incr", "cache.internal", "counter"))

    @compute_function(compute_cost=1e-5)
    def unwrap(vfs):
        envelope = parse_kv_response_item(read_items(vfs, "response")[0].data)
        write_item(vfs, "out", "value", envelope["value"])

    worker.frontend.register_function(gen)
    worker.frontend.register_function(unwrap)
    worker.frontend.register_composition("""
        composition bump {
            compute g uses gen in(seed) out(request);
            comm cache protocol kv;
            compute u uses unwrap in(response) out(out);
            input seed -> g.seed;
            g.request -> cache.request [all];
            cache.response -> u.response [all];
            output u.out -> result;
        }
    """)
    result = worker.invoke_and_run("bump", {"seed": b""})
    assert result.ok
    assert result.output("result").item("value").data == b"42"
    assert store.get("counter") == b"42"
