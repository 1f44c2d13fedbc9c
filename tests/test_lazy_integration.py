"""Lazy wire-format views flowing through every parsed-set consumer.

The data-layer tests pin lazy ≡ strict; these tests pin that the
*consumers* of parsed sets — dispatcher expansion, the vfs view, the
communication engine, the HTTP frontend, and the application workloads
— accept lazy views interchangeably with eager sets, and that the
routing-only paths never materialize payload bytes.
"""

import json

import pytest

from repro.composition import Distribution
from repro.data import (
    DataItem,
    DataSet,
    LazyDataItem,
    LazyDataSet,
    VirtualFileSystem,
    parse_sets_lazy,
    serialize_sets,
)
from repro.dispatcher import expand_instances
from repro.dispatcher.dispatcher import InvocationResult
from repro.engines import CommunicationEngine, EngineGroup, Task
from repro.functions import compute_function, format_http_request, parse_http_response_item
from repro.net import EchoService, LatencyModel, SimulatedNetwork
from repro.sim import Environment
from repro.worker import WorkerConfig, WorkerNode

ALL = Distribution.ALL
EACH = Distribution.EACH
KEY = Distribution.KEY


def lazy_set(ident, items):
    """One LazyDataSet round-tripped through the wire format."""
    (view,) = parse_sets_lazy(serialize_sets([DataSet(ident, items)]))
    assert isinstance(view, LazyDataSet)
    return view


# -- dispatcher expansion -----------------------------------------------------


def test_expansion_all_routes_lazy_set_without_touching_items():
    view = lazy_set("src", [DataItem(f"i{n}", b"payload", key=None) for n in range(8)])
    plans = expand_instances("n", [("in", ALL, view)])
    assert len(plans) == 1
    routed = plans[0].input_sets[0]
    assert isinstance(routed, LazyDataSet) and routed.ident == "in"
    assert routed._body.entries is None  # broadcast never decoded an item


def test_expansion_each_over_lazy_items():
    view = lazy_set("src", [DataItem(f"i{n}", bytes([n])) for n in range(3)])
    plans = expand_instances("n", [("in", EACH, view)])
    assert len(plans) == 3
    for index, plan in enumerate(plans):
        (item,) = list(plan.input_sets[0])
        assert isinstance(item, LazyDataItem)
        assert item.data == bytes([index])


def test_expansion_key_groups_lazy_items_without_payload_copies():
    view = lazy_set(
        "src", [DataItem(f"i{n}", b"data", key=f"k{n % 3}") for n in range(9)]
    )
    plans = expand_instances("n", [("in", KEY, view)])
    assert [plan.key for plan in plans] == ["k0", "k1", "k2"]
    for plan in plans:
        for item in plan.input_sets[0]:
            assert isinstance(item, LazyDataItem)
            assert item._data is None  # grouped by key header only


def test_expansion_mixed_lazy_and_eager_key_edges():
    view = lazy_set("a", [DataItem("x", b"1", key="k"), DataItem("y", b"2", key="j")])
    eager = DataSet("b", [DataItem("p", b"3", key="j"), DataItem("q", b"4", key="k")])
    plans = expand_instances("n", [("lhs", KEY, view), ("rhs", KEY, eager)])
    assert [plan.key for plan in plans] == ["k", "j"]
    assert [item.ident for item in plans[0].input_sets[1]] == ["q"]


# -- vfs ----------------------------------------------------------------------


def test_vfs_serves_lazy_input_sets():
    view = lazy_set("config", [DataItem("a.txt", b"alpha"), DataItem("b.txt", b"beta")])
    vfs = VirtualFileSystem([view], ["out"])
    assert vfs.read_bytes("/in/config/a.txt") == b"alpha"
    assert vfs.read_text("/in/config/b.txt") == "beta"
    assert vfs.listdir("/in/config") == ["a.txt", "b.txt"]
    assert vfs.exists("/in/config/a.txt")


# -- communication engine -----------------------------------------------------


def test_comm_engine_exchanges_lazy_request_items():
    env = Environment()
    network = SimulatedNetwork(env, LatencyModel())
    network.register(EchoService())
    group = EngineGroup(
        env, "communication", lambda group, name: CommunicationEngine(env, group, network)
    )
    request = format_http_request("POST", "http://echo.internal/", body=b"lazy ping")
    view = lazy_set("request", [DataItem("r0", request)])
    task = Task(
        kind="communication",
        input_sets=[view],
        output_set_names=["response"],
    )
    done = env.event()
    group.submit(task, done.succeed)
    outcome = env.run(until=done)
    assert outcome.success
    envelope = parse_http_response_item(outcome.outputs[0].item("r0").data)
    assert envelope["status"] == 200
    assert envelope["body"] == b"lazy ping"


# -- HTTP frontend ------------------------------------------------------------


@compute_function(compute_cost=1e-4)
def shout_lazy(vfs):
    text = vfs.read_text("/in/text/text")
    vfs.write_text("/out/result/text", text.upper())


SHOUT_DSL = """
composition shout_comp {
    compute s uses shout_lazy in(text) out(result);
    input text -> s.text;
    output s.result -> result;
}
"""


def make_worker():
    worker = WorkerNode(WorkerConfig(total_cores=4, control_plane_enabled=False))
    worker.frontend.register_function(shout_lazy)
    worker.frontend.register_composition(SHOUT_DSL)
    return worker


def test_frontend_accepts_lazy_input_set():
    worker = make_worker()
    view = lazy_set("text", [DataItem("text", b"whisper")])
    result = worker.invoke_and_run("shout_comp", {"text": view})
    assert result.ok
    assert result.output("result").item("text").data == b"WHISPER"


def test_frontend_serializes_lazy_outputs():
    worker = make_worker()
    view = lazy_set("result", [DataItem("text", b"done", key="k")])
    response = worker.frontend.serialize_result(
        InvocationResult(invocation_id=1, outputs={"result": view})
    )
    assert response.status == 200
    assert json.loads(response.body) == {"result": {"text": b"done".hex()}}


# -- application workloads (sec77 text2sql / fig09 SSB queries) ---------------


def test_text2sql_workflow_with_lazy_prompt():
    from repro.apps.text2sql import register_text2sql_app, setup_text2sql_services

    def run(inputs):
        worker = WorkerNode(WorkerConfig(total_cores=8, control_plane_enabled=False))
        setup_text2sql_services(worker)
        register_text2sql_app(worker)
        invocation = worker.invoke_and_run("text2sql", inputs)
        assert invocation.ok
        return invocation.output("answer").item("text").text()

    prompt = b"What are the top rated movies?"
    baseline = run({"prompt": prompt})
    lazy = run({"prompt": lazy_set("prompt", [DataItem("prompt", prompt)])})
    assert lazy == baseline


def test_ssb_query_with_lazy_input():
    from repro.experiments.fig09_ssb_athena import run_fig09

    # The fig09 workload invokes per-query compositions through the
    # same frontend path exercised above; a reduced run doubles as a
    # smoke test that its query plans tolerate the lazy data plane.
    result = run_fig09(queries=("Q1.1",), cores=4)
    assert result.rows


def test_e2e_outputs_match_between_lazy_and_eager_inputs():
    worker = make_worker()
    eager = worker.invoke_and_run("shout_comp", {"text": b"same bytes"})
    worker2 = make_worker()
    view = lazy_set("text", [DataItem("text", b"same bytes")])
    lazy = worker2.invoke_and_run("shout_comp", {"text": view})
    assert eager.output("result").item("text").data == lazy.output("result").item("text").data
