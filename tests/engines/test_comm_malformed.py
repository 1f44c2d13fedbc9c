"""Malformed request envelopes become status-400 items, never handler faults.

The engine's module docstring promises an error *item* for input that
fails validation.  Wrong-typed fields used to raise ``TypeError`` /
``AttributeError`` past ``except (ValueError, SanitizationError)`` and
fail the whole task; each corpus entry pins one such shape.
"""

import json

import pytest

from repro.data import DataItem, DataSet, EnvelopeItem
from repro.engines import CommunicationEngine, EngineGroup, Task
from repro.functions import format_http_request, parse_http_response_item
from repro.net import EchoService, LatencyModel, SimulatedNetwork
from repro.sim import Environment

_HTTP_OK = {"method": "GET", "url": "http://echo.internal/", "headers": {}, "body_hex": ""}

HTTP_CORPUS = [
    pytest.param(b"\xff\xfe not utf-8", id="not-utf8"),
    pytest.param(b"{truncated", id="not-json"),
    pytest.param(b"[1, 2]", id="not-an-object"),
    pytest.param(b'{"method": "GET"}', id="missing-fields"),
    *[
        pytest.param(json.dumps({**_HTTP_OK, field: value}).encode(), id=f"{field}={value!r}")
        for field, value in [
            ("body_hex", 5),
            ("body_hex", None),
            ("body_hex", "xyz"),
            ("headers", [1]),
            ("headers", {"a": 1}),
            ("headers", None),
            ("url", 7),
            ("url", None),
            ("method", 5),
            ("method", ["GET"]),
        ]
    ],
]

def _run(items):
    env = Environment()
    network = SimulatedNetwork(env, LatencyModel())
    network.register(EchoService())
    group = EngineGroup(
        env, "communication", lambda group, name: CommunicationEngine(env, group, network)
    )
    (engine,) = group.engines
    task = Task(
        kind="communication",
        input_sets=[DataSet("request", items)],
        output_set_names=["response"],
    )
    done = env.event()
    group.submit(task, done.succeed)
    outcome = env.run(until=done)
    return engine, outcome


@pytest.mark.parametrize("raw", HTTP_CORPUS)
def test_malformed_http_request_yields_one_400_item(raw):
    engine, outcome = _run([DataItem("bad", raw, key="shard")])
    assert outcome.success
    assert engine.handler_faults == 0
    (response,) = outcome.outputs
    (item,) = list(response)
    assert isinstance(item, EnvelopeItem) and item.key == "shard"
    envelope = parse_http_response_item(item)
    assert envelope == parse_http_response_item(item.data)
    assert envelope["status"] == 400 and envelope["error"]
    assert envelope["body"] == b""


def test_malformed_item_does_not_poison_its_neighbours():
    items = [
        DataItem("good", format_http_request("POST", "http://echo.internal/", body=b"hi")),
        DataItem("bad", json.dumps({**_HTTP_OK, "url": 7}).encode()),
    ]
    engine, outcome = _run(items)
    assert outcome.success and engine.handler_faults == 0
    statuses = {i.ident: parse_http_response_item(i)["status"] for i in outcome.outputs[0]}
    assert statuses == {"good": 200, "bad": 400}


def test_cached_rejection_repeats_the_same_item():
    raw = json.dumps({**_HTTP_OK, "headers": [1]}).encode()
    engine, first = _run([DataItem("a", raw)])
    # Same bytes object again on the same engine: the memoised verdict.
    env = engine.env
    task = Task(
        kind="communication",
        input_sets=[DataSet("request", [DataItem("a", raw)])],
        output_set_names=["response"],
    )
    done = env.event()
    engine.group.submit(task, done.succeed)
    second = env.run(until=done)
    assert first.outputs[0].item("a").data == second.outputs[0].item("a").data
    assert engine.handler_faults == 0

