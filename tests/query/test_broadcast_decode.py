"""Broadcast dimensions: decoded and built into a side once per invocation.

The ``partial`` instances of one SSB invocation receive the same four
dimension items over the ``all`` edge and probe one shared dimension
side: the tables decoded, filtered, projected and ordered once.  The
sharing is scoped to the items: a second invocation builds again, and
nothing outlives the invocation.  The differential runs every query as
shipped and with a side decoded and built per ``partial`` instance:
outputs, virtual finish time and the committed-memory series must agree.
"""

import gc
import weakref

import pytest

from repro.functions.sdk import parse_http_response_item
from repro.query import (
    SSB_QUERY_NAMES,
    Table,
    generate_ssb_tables,
    plan_to_dag,
    register_ssb_query,
    ssb,
    ssb_dimension_side,
)

from .. import memory_series
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


@pytest.fixture
def sides_built(monkeypatch):
    """Every dimension side the composition path builds, in build order."""
    built = []

    def recording(name, tables):
        built.append(ssb_dimension_side(name, tables))
        return built[-1]

    monkeypatch.setattr(plan_to_dag, "ssb_dimension_side", recording)
    return built


def test_no_side_outlives_or_crosses_its_invocation(ssb_tables, sides_built):
    worker, _store, _manifest = make_worker_with_store(ssb_tables, partitions=4)
    composition = register_ssb_query(worker, "Q3.3", partitions=4)
    assert worker.invoke_and_run(composition, {"query": b"Q3.3"}).ok
    assert len(sides_built) == 1
    # Two invocations in flight at once: one side each, neither shared.
    invocations = [worker.frontend.invoke(composition, {"query": b"Q3.3"}) for _ in range(2)]
    worker.run()
    assert all(invocation.value.ok for invocation in invocations)
    assert len(sides_built) == 3 and sides_built[1] is not sides_built[2]
    refs = [weakref.ref(side) for side in sides_built]
    sides_built.clear()
    gc.collect()
    assert [ref() for ref in refs] == [None] * 3
    assert plan_to_dag._BROADCAST == {}


@pytest.mark.parametrize("query, dimensions", [("Q1.1", 1), ("Q2.1", 3), ("Q4.1", 4)])
def test_dimension_filters_per_invocation_do_not_grow_with_partitions(ssb_tables, monkeypatch, query, dimensions):
    # Each dimension is filtered once per invocation, not once per
    # partial (a side built per partial filters Q4.1's four P times).
    filtered = []
    real = ssb.filter_rows

    def counting(table, predicate):
        filtered.append(table.name)
        return real(table, predicate)

    monkeypatch.setattr(ssb, "filter_rows", counting)
    for partitions in (1, 2, 4):
        filtered.clear()
        worker, _store, _manifest = make_worker_with_store(ssb_tables, partitions=partitions)
        composition = register_ssb_query(worker, query, partitions=partitions)
        assert worker.invoke_and_run(composition, {"query": query.encode()}).ok
        assert len([name for name in filtered if name != "lineorder"]) == dimensions, partitions


def _run(tables, query):
    with pytest.MonkeyPatch.context() as patch:
        memory_series.install(patch)
        worker, _store, _manifest = make_worker_with_store(tables, partitions=4)
    result = worker.invoke_and_run(register_ssb_query(worker, query, partitions=4), {"query": query.encode()})
    assert result.ok
    outputs = {
        name: [(item.ident, item.key, item.data) for item in data_set]
        for name, data_set in result.outputs.items()
    }
    memory = worker.memory
    return outputs, result.finished_at, memory.times, memory.values, memory.peak_bytes


def _side_every_call(query_name, items):
    tables = {item.ident: Table.from_bytes(parse_http_response_item(item)["body"]) for item in items}
    return ssb_dimension_side(query_name, tables)


@pytest.mark.parametrize("query", SSB_QUERY_NAMES)
def test_shared_decode_equals_decode_per_instance(ssb_tables, query, monkeypatch):
    # Per instance: each partial decodes its own dimension tables and
    # builds its own side from them.
    shared = _run(ssb_tables, query)
    monkeypatch.setattr(plan_to_dag, "dimension_side", _side_every_call)
    assert shared == _run(ssb_tables, query)
    assert len(shared[2]) > 4 and shared[4] > 0  # a real memory series was compared
