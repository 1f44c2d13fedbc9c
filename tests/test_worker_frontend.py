"""Tests for the worker node assembly and the HTTP frontend."""

import json

import pytest

from repro.composition.registry import RegistryError
from repro.functions import compute_function
from repro.net import HttpRequest
from repro.worker import WorkerConfig, WorkerNode


@compute_function(compute_cost=1e-4)
def shout(vfs):
    text = vfs.read_text("/in/text/text")
    vfs.write_text("/out/result/text", text.upper())


SHOUT_DSL = """
composition shout_comp {
    compute s uses shout in(text) out(result);
    input text -> s.text;
    output s.result -> result;
}
"""


def make_worker(**kwargs):
    kwargs.setdefault("total_cores", 4)
    kwargs.setdefault("control_plane_enabled", False)
    worker = WorkerNode(WorkerConfig(**kwargs))
    worker.frontend.register_function(shout)
    worker.frontend.register_composition(SHOUT_DSL)
    return worker


def test_worker_config_validation():
    with pytest.raises(ValueError):
        WorkerConfig(total_cores=1)
    with pytest.raises(ValueError):
        WorkerConfig(total_cores=4, initial_comm_cores=4)
    with pytest.raises(ValueError):
        WorkerConfig(total_cores=4, initial_comm_cores=0)


def test_worker_core_split():
    worker = WorkerNode(WorkerConfig(total_cores=8, initial_comm_cores=3, control_plane_enabled=False))
    assert worker.compute_group.engine_count == 5
    assert worker.comm_group.engine_count == 3
    assert worker.total_engine_cores == 8


def test_invoke_and_run_shortcut():
    worker = make_worker()
    result = worker.invoke_and_run("shout_comp", {"text": b"quiet"})
    assert result.ok
    assert result.output("result").item("text").data == b"QUIET"


def test_unknown_composition_raises_at_the_call_site():
    # Frontend and dispatcher alike: the typed error leaves invoke() /
    # start() itself, with nothing scheduled and no invocation counted.
    worker = make_worker()
    scheduled = worker.env.events_scheduled
    for layer in (worker.frontend, worker.dispatcher):
        for entry in (layer.invoke, lambda *args: layer.start(*args, print)):
            with pytest.raises(RegistryError, match="unknown composition 'nope'"):
                entry("nope", {"text": b"x"})
    assert worker.env.events_scheduled == scheduled
    assert worker.dispatcher.invocations_started == 0


def test_string_input_encoded():
    worker = make_worker()
    result = worker.invoke_and_run("shout_comp", {"text": "string input"})
    assert result.output("result").item("text").data == b"STRING INPUT"


def test_stats_shape():
    worker = make_worker()
    worker.invoke_and_run("shout_comp", {"text": b"x"})
    stats = worker.stats()
    assert stats["invocations_completed"] == 1
    assert stats["compute_tasks"] == 1
    assert stats["committed_bytes"] == 0
    assert stats["peak_committed_bytes"] > 0


def test_http_register_composition():
    worker = make_worker()
    source = SHOUT_DSL.replace("shout_comp", "shout2")
    response = worker.frontend.handle(
        HttpRequest("POST", "http://dandelion.internal/v1/compositions", body=source.encode())
    )
    assert response.status == 201
    assert worker.registry.has_composition("shout2")


def test_http_register_invalid_composition():
    worker = make_worker()
    response = worker.frontend.handle(
        HttpRequest("POST", "http://dandelion.internal/v1/compositions", body=b"not valid dsl")
    )
    assert response.status == 400


def test_http_invoke_accepted_then_unknown():
    worker = make_worker()
    accepted = worker.frontend.handle(
        HttpRequest("POST", "http://dandelion.internal/v1/invoke/shout_comp")
    )
    assert accepted.status == 202
    missing = worker.frontend.handle(
        HttpRequest("POST", "http://dandelion.internal/v1/invoke/ghost")
    )
    assert missing.status == 404


def test_http_unknown_endpoint():
    worker = make_worker()
    response = worker.frontend.handle(HttpRequest("GET", "http://dandelion.internal/other"))
    assert response.status == 404


def test_http_full_invocation_roundtrip():
    worker = make_worker()
    request = HttpRequest(
        "POST",
        "http://dandelion.internal/v1/invoke/shout_comp",
        body=json.dumps({"text": "over http"}).encode(),
    )
    process = worker.env.process(worker.frontend.handle_invoke_process(request))
    response = worker.env.run(until=process)
    assert response.status == 200
    payload = json.loads(response.body)
    assert bytes.fromhex(payload["result"]["text"]) == b"OVER HTTP"


def test_http_invocation_bad_json():
    worker = make_worker()
    request = HttpRequest(
        "POST", "http://dandelion.internal/v1/invoke/shout_comp", body=b"{broken"
    )
    process = worker.env.process(worker.frontend.handle_invoke_process(request))
    response = worker.env.run(until=process)
    assert response.status == 400


def test_serialize_failed_result_is_500():
    worker = make_worker()
    result = worker.invoke_and_run("shout_comp", {})  # missing inputs
    response = worker.frontend.serialize_result(result)
    assert response.status == 500


def test_control_plane_runs_by_default():
    worker = WorkerNode(WorkerConfig(total_cores=4))
    worker.frontend.register_function(shout)
    worker.frontend.register_composition(SHOUT_DSL)
    result = worker.invoke_and_run("shout_comp", {"text": b"cp"})
    assert result.ok
    assert worker.allocator.enabled


def test_http_register_composition_over_network():
    # The frontend is itself a network service: registration can arrive
    # through the simulated network like any other HTTP exchange.
    worker = make_worker()
    worker.network.register(worker.frontend)
    source = SHOUT_DSL.replace("shout_comp", "netreg")
    request = HttpRequest(
        "POST", "http://dandelion.internal/v1/compositions", body=source.encode()
    )

    def exchange():
        response = yield from worker.network.perform(request)
        return response

    process = worker.env.process(exchange())
    response = worker.env.run(until=process)
    assert response.status == 201
    assert worker.registry.has_composition("netreg")
