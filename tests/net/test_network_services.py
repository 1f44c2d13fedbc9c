"""Tests for the simulated network and the remote services."""

import json

import pytest

from repro.net import (
    AuthService,
    EchoService,
    HttpRequest,
    LatencyModel,
    LlmService,
    LogShardService,
    ObjectStoreService,
    SimulatedNetwork,
    SqlDatabaseService,
)
from repro.sim import Environment


def run_request(network, request):
    done = network.env.event()
    network.perform(request, done.succeed)
    return network.env.run(until=done)


def make_network():
    env = Environment()
    return SimulatedNetwork(env)


def test_echo_roundtrip_and_time_advances():
    network = make_network()
    network.register(EchoService())
    response = run_request(
        network, HttpRequest("POST", "http://echo.internal/", body=b"ping")
    )
    assert response.ok
    assert response.body == b"ping"
    assert network.env.now > 0


def test_unknown_host_returns_502_after_rtt():
    network = make_network()
    response = run_request(network, HttpRequest("GET", "http://ghost.internal/"))
    assert response.status == 502
    assert network.env.now == pytest.approx(network.latency.round_trip_seconds)


def test_duplicate_host_rejected():
    network = make_network()
    network.register(EchoService())
    with pytest.raises(ValueError, match="already registered"):
        network.register(EchoService())


def test_latency_scales_with_payload():
    model = LatencyModel(round_trip_seconds=0.0, bytes_per_second=1e6)
    small = HttpRequest("POST", "http://h.internal/", body=b"x")
    large = HttpRequest("POST", "http://h.internal/", body=b"x" * 100000)
    assert model.request_seconds(large) > model.request_seconds(small)


def test_network_counters():
    network = make_network()
    network.register(EchoService())
    run_request(network, HttpRequest("POST", "http://echo.internal/", body=b"abc"))
    assert network.requests_sent == 1
    assert network.bytes_sent > 0
    assert network.bytes_received > 0


def test_object_store_get_put_delete():
    network = make_network()
    store = ObjectStoreService()
    network.register(store)
    put = HttpRequest("PUT", "http://storage.internal/bucket/key", body=b"data")
    assert run_request(network, put).ok
    assert store.get_object("bucket", "key") == b"data"
    get = HttpRequest("GET", "http://storage.internal/bucket/key")
    assert run_request(network, get).body == b"data"
    delete = HttpRequest("DELETE", "http://storage.internal/bucket/key")
    assert run_request(network, delete).status == 204
    assert run_request(network, get).status == 404


def test_object_store_preload_helper():
    store = ObjectStoreService()
    store.put_object("b", "k", b"v")
    assert store.get_object("b", "k") == b"v"
    with pytest.raises(KeyError):
        store.get_object("b", "other")


def test_object_store_method_not_allowed():
    network = make_network()
    network.register(ObjectStoreService())
    response = run_request(network, HttpRequest("PATCH", "http://storage.internal/b/k"))
    assert response.status == 405


def test_auth_service_grants_and_denies():
    network = make_network()
    auth = AuthService()
    auth.grant("tok123", ["http://logs0.internal/logs", "http://logs1.internal/logs"])
    network.register(auth)
    ok = run_request(
        network,
        HttpRequest("POST", "http://auth.internal/authorize", body=b"tok123"),
    )
    assert ok.ok
    assert json.loads(ok.text()) == [
        "http://logs0.internal/logs",
        "http://logs1.internal/logs",
    ]
    denied = run_request(
        network, HttpRequest("POST", "http://auth.internal/authorize", body=b"bad")
    )
    assert denied.status == 403


def test_auth_service_unknown_path():
    network = make_network()
    network.register(AuthService())
    response = run_request(network, HttpRequest("POST", "http://auth.internal/other"))
    assert response.status == 404


def test_log_shard_serves_lines():
    network = make_network()
    shard = LogShardService("logs0.internal", ["line one", "line two"])
    network.register(shard)
    response = run_request(network, HttpRequest("GET", "http://logs0.internal/logs"))
    assert response.text().splitlines() == ["line one", "line two"]


def test_llm_service_latency_dominates():
    network = make_network()
    llm = LlmService(latency_seconds=1.238)
    network.register(llm)
    body = json.dumps({"prompt": "How many movies have rating above 8?"}).encode()
    response = run_request(network, HttpRequest("POST", "http://llm.internal/v1", body=body))
    assert response.ok
    completion = json.loads(response.text())["completion"]
    assert "SELECT COUNT(*)" in completion
    assert "movies" in completion
    # The 1238 ms inference time dominates the exchange.
    assert network.env.now == pytest.approx(1.238, rel=0.05)


def test_llm_service_rejects_bad_payload():
    network = make_network()
    network.register(LlmService())
    response = run_request(network, HttpRequest("POST", "http://llm.internal/v1", body=b"not json"))
    assert response.status == 400


def test_llm_templates_cover_query_shapes():
    llm = LlmService()
    cases = {
        "What is the average rating of movies?": "AVG",
        "Show the top rated movies": "ORDER BY rating DESC",
        "List some customers": "SELECT * FROM customers",
    }
    for prompt, fragment in cases.items():
        body = json.dumps({"prompt": prompt}).encode()
        response = llm.handle(HttpRequest("POST", "http://llm.internal/v1", body=body))
        assert fragment in json.loads(response.text())["completion"]


def test_sql_database_service_delegates_to_executor():
    def executor(sql):
        assert sql == "SELECT 1"
        return [{"one": 1}]

    network = make_network()
    network.register(SqlDatabaseService(executor=executor))
    response = run_request(network, HttpRequest("POST", "http://db.internal/query", body=b"SELECT 1"))
    assert json.loads(response.text()) == [{"one": 1}]


def test_sql_database_service_surfaces_errors_as_400():
    def executor(sql):
        raise ValueError("syntax error")

    network = make_network()
    network.register(SqlDatabaseService(executor=executor))
    response = run_request(network, HttpRequest("POST", "http://db.internal/query", body=b"garbage"))
    assert response.status == 400
    assert "syntax error" in response.reason


def test_sql_database_requires_executor():
    with pytest.raises(ValueError):
        SqlDatabaseService()


def test_service_request_counting():
    network = make_network()
    echo = EchoService()
    network.register(echo)
    for _ in range(3):
        run_request(network, HttpRequest("GET", "http://echo.internal/"))
    assert echo.requests_served == 3
