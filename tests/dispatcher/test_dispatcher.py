"""Integration tests for the dispatcher over a full worker node."""

import pytest

from repro.data import DataItem, DataSet
from repro.dispatcher import Dispatcher
from repro.errors import InvocationError
from repro.functions import (
    compute_function,
    format_http_request,
    parse_http_response_item,
    read_all_bytes,
    read_items,
    write_item,
)
from repro.net import EchoService
from repro.worker import WorkerConfig, WorkerNode


def make_worker(**config_kwargs):
    config_kwargs.setdefault("total_cores", 4)
    config_kwargs.setdefault("control_plane_enabled", False)
    worker = WorkerNode(WorkerConfig(**config_kwargs))
    worker.network.register(EchoService())
    return worker


@compute_function(compute_cost=1e-4)
def upper(vfs):
    text = vfs.read_text("/in/text/text")
    vfs.write_text("/out/result/text", text.upper())


@compute_function(compute_cost=1e-4)
def exclaim(vfs):
    text = vfs.read_text("/in/text/text")
    vfs.write_text("/out/result/text", text + "!")


UPPER_PIPELINE = """
composition upper_exclaim {
    compute up uses upper in(text) out(result);
    compute ex uses exclaim in(text) out(result);
    input text -> up.text;
    up.result -> ex.text;
    output ex.result -> result;
}
"""


def test_linear_pipeline_end_to_end():
    worker = make_worker()
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(UPPER_PIPELINE)
    result = worker.invoke_and_run("upper_exclaim", {"text": b"hello"})
    assert result.ok
    assert result.output("result").item("text").data == b"HELLO!"
    assert result.latency > 0


def test_missing_input_rejected():
    worker = make_worker()
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(UPPER_PIPELINE)
    result = worker.invoke_and_run("upper_exclaim", {})
    assert not result.ok
    assert "expects inputs" in str(result.error)


def test_extra_input_rejected():
    worker = make_worker()
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(UPPER_PIPELINE)
    result = worker.invoke_and_run(
        "upper_exclaim", {"text": b"x", "bogus": b"y"}
    )
    assert not result.ok


def test_user_failure_propagates_to_invocation():
    @compute_function()
    def broken(vfs):
        raise RuntimeError("deliberate")

    worker = make_worker()
    worker.frontend.register_function(broken)
    worker.frontend.register_composition(
        """
        composition failing {
            compute f uses broken in(x) out(y);
            input x -> f.x;
            output f.y -> y;
        }
        """
    )
    result = worker.invoke_and_run("failing", {"x": b""})
    assert not result.ok
    assert "deliberate" in str(result.error)
    with pytest.raises(InvocationError):
        result.output("y")


def test_failure_in_middle_of_dag_propagates_past_downstream_nodes():
    @compute_function()
    def broken(vfs):
        raise RuntimeError("mid-dag failure")

    worker = make_worker()
    worker.frontend.register_function(upper)
    worker.frontend.register_function(broken)
    worker.frontend.register_composition(
        """
        composition mid_fail {
            compute a uses upper in(text) out(result);
            compute b uses broken in(x) out(y);
            compute c uses upper in(text) out(result);
            input text -> a.text;
            a.result -> b.x;
            b.y -> c.text;
            output c.result -> result;
        }
        """
    )
    result = worker.invoke_and_run("mid_fail", {"text": b"hi"})
    assert not result.ok
    assert "mid-dag failure" in str(result.error)


def test_each_fanout_runs_parallel_instances():
    @compute_function(compute_cost=1e-4)
    def splitter(vfs):
        for index in range(4):
            write_item(vfs, "parts", f"p{index}", str(index).encode())

    @compute_function(compute_cost=5e-3)
    def worker_fn(vfs):
        data = read_all_bytes(vfs, "part")
        write_item(vfs, "result", "r", data * 2)

    @compute_function(compute_cost=1e-4)
    def gather(vfs):
        values = sorted(item.data for item in read_items(vfs, "parts"))
        write_item(vfs, "result", "all", b"".join(values))

    worker = make_worker(total_cores=6)
    for binary in (splitter, worker_fn, gather):
        worker.frontend.register_function(binary)
    worker.frontend.register_composition(
        """
        composition fan {
            compute split uses splitter in(seed) out(parts);
            compute work uses worker_fn in(part) out(result);
            compute agg uses gather in(parts) out(result);
            input seed -> split.seed;
            split.parts -> work.part [each];
            work.result -> agg.parts [all];
            output agg.result -> final;
        }
        """
    )
    result = worker.invoke_and_run("fan", {"seed": b""})
    assert result.ok
    assert result.output("final").item("all").data == b"00112233"
    # 4 instances of a 5ms function on 5 compute cores: parallel, so
    # well under the 20ms a serial execution would take.
    assert result.latency < 0.015


def test_key_distribution_groups_items():
    @compute_function(compute_cost=1e-4)
    def shard_writer(vfs):
        for index in range(6):
            write_item(vfs, "records", f"rec{index}", str(index).encode(), key=f"shard{index % 2}")

    @compute_function(compute_cost=1e-4)
    def shard_reducer(vfs):
        values = b"+".join(item.data for item in read_items(vfs, "records"))
        write_item(vfs, "result", "sum", values)

    @compute_function(compute_cost=1e-4)
    def collect(vfs):
        values = sorted(item.data for item in read_items(vfs, "sums"))
        write_item(vfs, "result", "out", b"|".join(values))

    worker = make_worker()
    for binary in (shard_writer, shard_reducer, collect):
        worker.frontend.register_function(binary)
    worker.frontend.register_composition(
        """
        composition grouped {
            compute gen uses shard_writer in(seed) out(records);
            compute red uses shard_reducer in(records) out(result);
            compute col uses collect in(sums) out(result);
            input seed -> gen.seed;
            gen.records -> red.records [key];
            red.result -> col.sums [all];
            output col.result -> final;
        }
        """
    )
    result = worker.invoke_and_run("grouped", {"seed": b""})
    assert result.ok
    assert result.output("final").item("out").data == b"0+2+4|1+3+5"


def test_comm_node_roundtrip_inside_composition():
    @compute_function(compute_cost=1e-4)
    def prepare(vfs):
        body = vfs.read_bytes("/in/payload/payload")
        write_item(vfs, "requests", "r", format_http_request("POST", "http://echo.internal/", body=body))

    @compute_function(compute_cost=1e-4)
    def extract(vfs):
        envelope = parse_http_response_item(read_items(vfs, "responses")[0].data)
        write_item(vfs, "result", "body", envelope["body"])

    worker = make_worker()
    worker.frontend.register_function(prepare)
    worker.frontend.register_function(extract)
    worker.frontend.register_composition(
        """
        composition echo_trip {
            compute prep uses prepare in(payload) out(requests);
            comm http;
            compute ext uses extract in(responses) out(result);
            input payload -> prep.payload;
            prep.requests -> http.request [all];
            http.response -> ext.responses [all];
            output ext.result -> result;
        }
        """
    )
    result = worker.invoke_and_run("echo_trip", {"payload": b"networked"})
    assert result.ok
    assert result.output("result").item("body").data == b"networked"


def test_nested_composition_executes():
    worker = make_worker()
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(
        """
        composition inner {
            compute up uses upper in(text) out(result);
            input text -> up.text;
            output up.result -> shouted;
        }
        """
    )
    worker.frontend.register_composition(
        """
        composition outer {
            compose sub uses inner;
            compute ex uses exclaim in(text) out(result);
            input text -> sub.text;
            sub.shouted -> ex.text;
            output ex.result -> result;
        }
        """
    )
    result = worker.invoke_and_run("outer", {"text": b"nested"})
    assert result.ok
    assert result.output("result").item("text").data == b"NESTED!"


def test_transient_failures_retried_until_success():
    # Rate 0.5 with max_retries=5: overwhelmingly likely to succeed.
    worker = make_worker(transient_failure_rate=0.5, max_retries=5, seed=3)
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(UPPER_PIPELINE)
    result = worker.invoke_and_run("upper_exclaim", {"text": b"retry"})
    assert result.ok
    assert result.output("result").item("text").data == b"RETRY!"


def test_always_transient_failure_exhausts_retries():
    worker = make_worker(transient_failure_rate=1.0, max_retries=2)
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(UPPER_PIPELINE)
    result = worker.invoke_and_run("upper_exclaim", {"text": b"x"})
    assert not result.ok
    assert "transient" in str(result.error)


def test_memory_contexts_freed_after_invocation():
    worker = make_worker()
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(UPPER_PIPELINE)
    result = worker.invoke_and_run("upper_exclaim", {"text": b"mem"})
    assert result.ok
    assert worker.memory.peak_bytes > 0
    assert worker.memory.current_bytes == 0
    assert worker.memory.live_context_count == 0


def test_concurrent_invocations_isolated():
    worker = make_worker()
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(UPPER_PIPELINE)
    processes = [
        worker.frontend.invoke("upper_exclaim", {"text": f"msg{i}".encode()})
        for i in range(5)
    ]
    worker.env.run(until=worker.env.all_of(processes))
    for index, process in enumerate(processes):
        result = process.value
        assert result.ok
        assert result.output("result").item("text").data == f"MSG{index}!".upper().encode()


def test_invocation_counters():
    worker = make_worker()
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(UPPER_PIPELINE)
    worker.invoke_and_run("upper_exclaim", {"text": b"a"})
    worker.invoke_and_run("upper_exclaim", {})
    assert worker.dispatcher.invocations_started == 2
    assert worker.dispatcher.invocations_completed == 1
    assert worker.dispatcher.invocations_failed == 1


def test_dataset_inputs_accepted_directly():
    worker = make_worker()
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(UPPER_PIPELINE)
    data = DataSet("text", [DataItem("text", b"direct")])
    result = worker.invoke_and_run("upper_exclaim", {"text": data})
    assert result.ok
    assert result.output("result").item("text").data == b"DIRECT!"


def test_default_timeout_preempts_runaway_functions():
    # §5 footnote 2: tasks exceeding the user-specified timeout are
    # preempted to prevent resource hogging.
    @compute_function(name="runaway", compute_cost=10.0)
    def runaway(vfs):
        pass

    worker = make_worker(default_timeout=0.5)
    worker.frontend.register_function(runaway)
    worker.frontend.register_composition(
        """
        composition hog {
            compute h uses runaway in(x) out(y);
            input x -> h.x;
            output h.y -> y;
        }
        """
    )
    result = worker.invoke_and_run("hog", {"x": b""})
    assert not result.ok
    assert "timeout" in str(result.error).lower()


def test_fast_function_unaffected_by_timeout():
    worker = make_worker(default_timeout=0.5)
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(UPPER_PIPELINE)
    result = worker.invoke_and_run("upper_exclaim", {"text": b"quick"})
    assert result.ok


def _broken_store(exc_type):
    """store_sets that fails only for the post-run output store.

    In copy mode inputs are stored at offset 0 and outputs at the
    committed watermark, so ``offset > 0`` singles out the output path.
    """
    from repro.data import MemoryContext

    original = MemoryContext.store_sets

    def store(self, sets, offset=0):
        if offset:
            raise exc_type("injected store failure")
        return original(self, sets, offset)

    return store


def test_output_store_capacity_overflow_tolerated(monkeypatch):
    # A ContextError from the output store only affects accounting
    # granularity (the declared reservation was too tight); the data
    # itself already lives in the outcome, so the invocation succeeds.
    from repro.data import MemoryContext
    from repro.data.context import ContextError

    worker = make_worker()
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(UPPER_PIPELINE)
    monkeypatch.setattr(MemoryContext, "store_sets", _broken_store(ContextError))
    result = worker.invoke_and_run("upper_exclaim", {"text": b"hello"})
    assert result.ok
    assert result.output("result").item("text").data == b"HELLO!"


def test_output_store_programming_error_propagates(monkeypatch):
    # Regression: the output store used to sit under a bare
    # ``except Exception: pass``, so a genuine serialization bug (e.g.
    # a TypeError from a malformed item) vanished silently.  Only
    # ContextError is tolerated now; anything else must surface.
    from repro.data import MemoryContext

    worker = make_worker()
    worker.frontend.register_function(upper)
    worker.frontend.register_function(exclaim)
    worker.frontend.register_composition(UPPER_PIPELINE)
    monkeypatch.setattr(MemoryContext, "store_sets", _broken_store(TypeError))
    with pytest.raises(TypeError, match="injected store failure"):
        worker.invoke_and_run("upper_exclaim", {"text": b"hello"})


@compute_function(compute_cost=0.1)
def deadline_slow_step(vfs):
    (item,) = read_items(vfs, "src")
    vfs.write_bytes("/out/dst/item", item.data)


def test_dsl_deadline_is_not_enforced_at_run_time():
    # A DSL deadline is a lint-time declaration (COST001/COST003): the
    # dispatcher runs a composition whose deadline its critical path
    # cannot meet, and has no switch to reject it instead.
    worker = make_worker()
    worker.frontend.register_function(deadline_slow_step)
    worker.frontend.register_composition("""
        composition slow_deadline_chain {
            deadline 50ms;
            compute s1 uses deadline_slow_step in(src) out(dst);
            compute s2 uses deadline_slow_step in(src) out(dst);
            input start -> s1.src;
            s1.dst -> s2.src;
            output s2.dst -> result;
        }
    """)
    result = worker.invoke_and_run("slow_deadline_chain", {"start": b"x"})
    assert result.ok
    assert result.output("result").item("item").data == b"x"
    dispatcher = worker.dispatcher
    with pytest.raises(TypeError):
        Dispatcher(worker.env, dispatcher.registry, dispatcher.compute_group,
                   dispatcher.comm_group, static_admission=True)
