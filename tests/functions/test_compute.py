"""Unit tests for the compute-function harness and SDK."""

import pytest

from repro.composition import FunctionBinary
from repro.data import DataItem, DataSet
from repro.errors import FunctionFailure, MemoryLimitExceeded
from repro.functions import (
    compute_function,
    format_http_request,
    parse_http_request_item,
    read_all_bytes,
    read_items,
    run_compute_function,
    write_item,
)


def inputs(**sets):
    return [
        DataSet(name, [DataItem(k, v) for k, v in items.items()])
        for name, items in sets.items()
    ]


def test_run_simple_function():
    @compute_function()
    def double(vfs):
        value = int(vfs.read_text("/in/data/value"))
        vfs.write_text("/out/result/value", str(value * 2))

    result = run_compute_function(double, inputs(data={"value": b"21"}), ["result"])
    assert result.outputs[0].item("value").data == b"42"
    assert result.input_bytes == 2
    assert result.output_bytes == 2


def test_declared_outputs_always_present():
    @compute_function()
    def silent(vfs):
        pass

    result = run_compute_function(silent, [], ["a", "b"])
    assert [s.ident for s in result.outputs] == ["a", "b"]
    assert all(len(s) == 0 for s in result.outputs)


def test_user_exception_wrapped_as_failure():
    @compute_function()
    def broken(vfs):
        raise RuntimeError("bug in user code")

    with pytest.raises(FunctionFailure) as exc_info:
        run_compute_function(broken, [], ["out"])
    assert exc_info.value.function_name == "broken"
    assert isinstance(exc_info.value.cause, RuntimeError)


def test_syscall_attempt_reported_as_failure():
    @compute_function()
    def escapee(vfs):
        open("/etc/passwd")

    with pytest.raises(FunctionFailure) as exc_info:
        run_compute_function(escapee, [], ["out"])
    assert "open" in str(exc_info.value.cause)


def test_purity_restored_after_function_runs():
    import builtins
    original = builtins.open

    @compute_function()
    def fine(vfs):
        vfs.write_text("/out/out/x", "ok")

    run_compute_function(fine, [], ["out"])
    assert builtins.open is original


def test_input_memory_limit_enforced():
    @compute_function(memory_limit=8)
    def small(vfs):
        pass

    with pytest.raises(MemoryLimitExceeded, match="inputs"):
        run_compute_function(small, inputs(data={"big": b"123456789"}), ["out"])


def test_output_memory_limit_enforced():
    @compute_function(memory_limit=16)
    def producer(vfs):
        vfs.write_bytes("/out/out/big", b"x" * 100)

    with pytest.raises(MemoryLimitExceeded, match="outputs"):
        run_compute_function(producer, [], ["out"])


def test_function_reads_multiple_sets():
    @compute_function()
    def concat(vfs):
        left = read_all_bytes(vfs, "left")
        right = read_all_bytes(vfs, "right")
        write_item(vfs, "out", "joined", left + right)

    result = run_compute_function(
        concat, inputs(left={"a": b"foo"}, right={"b": b"bar"}), ["out"]
    )
    assert result.outputs[0].item("joined").data == b"foobar"


def test_read_items_helper():
    @compute_function()
    def lister(vfs):
        items = read_items(vfs, "data")
        names = ",".join(item.ident for item in items)
        write_item(vfs, "out", "names", names.encode())

    result = run_compute_function(
        lister, inputs(data={"b": b"2", "a": b"1"}), ["out"]
    )
    assert result.outputs[0].item("names").data == b"a,b"


def test_read_items_returns_the_sets_own_items():
    from repro.data import DataItem, DataSet, VfsError, VirtualFileSystem

    source = DataSet("data", [DataItem("b", b"2", key="kb"), DataItem("a", b"1")])
    vfs = VirtualFileSystem([source], [])
    listed = read_items(vfs, "data")
    assert [item.ident for item in listed] == vfs.listdir("/in/data") == ["a", "b"]
    assert listed[0] is source.item("a") and listed[1] is source.item("b")  # not copies
    assert listed[1].key == "kb"
    with pytest.raises(VfsError, match="no directory '/in/ghost'"):
        read_items(vfs, "ghost")


def test_write_item_with_key():
    @compute_function()
    def keyed(vfs):
        write_item(vfs, "out", "x", b"1", key="shard0")

    result = run_compute_function(keyed, [], ["out"])
    assert result.outputs[0].item("x").key == "shard0"


def test_http_request_envelope_roundtrip():
    raw = format_http_request(
        "GET", "http://storage.internal/bucket/key",
        body=b"payload", headers={"accept": "text/plain"},
    )
    parsed = parse_http_request_item(raw)
    assert parsed["method"] == "GET"
    assert parsed["url"] == "http://storage.internal/bucket/key"
    assert parsed["headers"] == {"accept": "text/plain"}
    assert parsed["body"] == b"payload"


def test_http_envelope_missing_fields_rejected():
    with pytest.raises(ValueError, match="missing fields"):
        parse_http_request_item(b'{"method": "GET"}')


def test_http_envelope_non_object_rejected():
    with pytest.raises(ValueError, match="JSON object"):
        parse_http_request_item(b'["GET"]')


def test_compute_function_decorator_metadata():
    @compute_function(name="custom", memory_limit=1 << 20, binary_size=1234, compute_cost=0.01)
    def implementation(vfs):
        pass

    assert isinstance(implementation, FunctionBinary)
    assert implementation.name == "custom"
    assert implementation.memory_limit == 1 << 20
    assert implementation.binary_size == 1234
    assert implementation.modelled_compute_seconds(0) == 0.01


def test_decorator_defaults_to_function_name():
    @compute_function()
    def my_fn(vfs):
        pass

    assert my_fn.name == "my_fn"
    assert my_fn.language == "python"
