"""Broadcast dimension tables: decoded once per invocation, and only then.

The ``partial`` instances of one SSB invocation receive the same four
dimension items over the ``all`` edge and share one decoded table per
item.  The sharing is scoped to the item: a second invocation decodes
again, and nothing outlives the invocation.  The differential runs every
query as shipped and with a decode per ``partial`` instance: outputs,
virtual finish time and the committed-memory series must agree.
"""

import gc
import weakref

import pytest

from repro.functions.sdk import parse_http_response_item
from repro.query import SSB_QUERY_NAMES, Table, generate_ssb_tables, plan_to_dag, register_ssb_query

from .test_plan_to_dag import make_worker_with_store


@pytest.fixture(scope="module")
def ssb_tables():
    return generate_ssb_tables(scale_factor=0.002, seed=1)


@pytest.fixture
def decodes(monkeypatch):
    """Every table ``Table.from_bytes`` returns, in call order."""
    decoded = []
    real = Table.from_bytes.__func__

    def counting(cls, blob):
        decoded.append(real(cls, blob))
        return decoded[-1]

    monkeypatch.setattr(Table, "from_bytes", classmethod(counting))
    return decoded


@pytest.mark.parametrize("partitions", [1, 2, 4])
def test_from_bytes_calls_are_four_plus_two_per_partition(ssb_tables, decodes, partitions):
    # 4 dimensions once, then per partition its chunk (in ``partial``)
    # and its partial result (in ``final``): Q2.1 at P=2 is 8, was 12.
    worker, _store, _manifest = make_worker_with_store(ssb_tables, partitions=partitions)
    composition = register_ssb_query(worker, "Q2.1", partitions=partitions)
    assert worker.invoke_and_run(composition, {"query": b"Q2.1"}).ok
    assert len(decodes) == 4 + 2 * partitions


TWICE_EACH = ["customer", "customer", "date", "date", "part", "part", "supplier", "supplier"]


def dimension_decodes(decodes):
    return sorted(table.name for table in decodes if table.name != "lineorder")


def test_each_invocation_decodes_its_own_dimensions(ssb_tables, decodes):
    worker, _store, _manifest = make_worker_with_store(ssb_tables, partitions=2)
    composition = register_ssb_query(worker, "Q2.1", partitions=2)
    for _ in range(2):
        assert worker.invoke_and_run(composition, {"query": b"Q2.1"}).ok
    assert len(decodes) == 16 and dimension_decodes(decodes) == TWICE_EACH
    # Two invocations in flight at once hold equal dimension bytes: the
    # memo is keyed by item identity, so neither reads the other's table.
    decodes.clear()
    invocations = [worker.frontend.invoke(composition, {"query": b"Q2.1"}) for _ in range(2)]
    worker.run()
    assert all(invocation.value.ok for invocation in invocations)
    assert dimension_decodes(decodes) == TWICE_EACH


def test_no_decoded_dimension_outlives_its_invocation(ssb_tables, decodes):
    worker, _store, _manifest = make_worker_with_store(ssb_tables, partitions=2)
    composition = register_ssb_query(worker, "Q3.1", partitions=2)
    result = worker.invoke_and_run(composition, {"query": b"Q3.1"})
    assert result.ok
    refs = [weakref.ref(table) for table in decodes if table.name == "part"]
    assert len(refs) == 1
    decodes.clear()
    gc.collect()
    assert refs[0]() is None
    assert plan_to_dag._BROADCAST == {}


def _run(tables, query):
    worker, _store, _manifest = make_worker_with_store(tables, partitions=4)
    result = worker.invoke_and_run(register_ssb_query(worker, query, partitions=4), {"query": query.encode()})
    assert result.ok
    outputs = {
        name: [(item.ident, item.key, item.data) for item in data_set]
        for name, data_set in result.outputs.items()
    }
    series = worker.memory.series
    return outputs, result.finished_at, series.times, series.values, worker.memory.peak_bytes


def _decode_every_call(item):
    return Table.from_bytes(parse_http_response_item(item)["body"])


@pytest.mark.parametrize("query", SSB_QUERY_NAMES)
def test_shared_decode_equals_decode_per_instance(ssb_tables, query, monkeypatch):
    shared = _run(ssb_tables, query)
    monkeypatch.setattr(plan_to_dag, "broadcast_table", _decode_every_call)
    assert shared == _run(ssb_tables, query)
    assert len(shared[2]) > 4 and shared[4] > 0  # a real memory series was compared
