"""Stored tables are decoded once; broadcast dimensions are built into a
side once per invocation.

``load_ssb_to_store`` decodes every chunk and dimension it stores, once;
a ``partial`` whose response body is that very stored object probes the
decoded table, and anything else (a re-PUT object, a body that took the
wire path) is decoded again.  The decoded tables die with the store.
The ``partial`` instances of one SSB invocation receive the same four
dimension items over the ``all`` edge and probe one shared dimension
side: the tables filtered, projected and ordered once.  The side is
scoped to the items: a second invocation builds again, and no side
outlives the invocation.  The differential runs every query as shipped
and with every table decoded and a side built per ``partial`` instance,
and ``final`` decoding the partial results: outputs, virtual finish time
and the committed-memory series must agree.
"""

import gc
import weakref

import pytest

from repro.data import DataItem, EnvelopeItem
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
def test_from_bytes_runs_at_load_and_never_inside_an_invocation(ssb_tables, decodes, partitions):
    # P chunks and 4 dimensions, where they are stored; an invocation
    # used to add 4 + 2P (Q2.1 at P=2: 8).
    worker, _store, _manifest = make_worker_with_store(ssb_tables, partitions=partitions)
    assert len(decodes) == partitions + 4
    decodes.clear()
    composition = register_ssb_query(worker, "Q2.1", partitions=partitions)
    assert worker.invoke_and_run(composition, {"query": b"Q2.1"}).ok
    assert decodes == []


def test_no_decode_inside_an_invocation(ssb_tables, decodes):
    worker, _store, _manifest = make_worker_with_store(ssb_tables, partitions=2)
    decodes.clear()
    composition = register_ssb_query(worker, "Q2.1", partitions=2)
    for _ in range(2):
        assert worker.invoke_and_run(composition, {"query": b"Q2.1"}).ok
    # Two invocations in flight at once read the same stored tables.
    invocations = [worker.frontend.invoke(composition, {"query": b"Q2.1"}) for _ in range(2)]
    worker.run()
    assert all(invocation.value.ok for invocation in invocations)
    assert decodes == []


def test_decoded_tables_die_with_the_store(ssb_tables, decodes):
    worker, store, _manifest = make_worker_with_store(ssb_tables, partitions=2)
    composition = register_ssb_query(worker, "Q3.1", partitions=2)
    assert worker.invoke_and_run(composition, {"query": b"Q3.1"}).ok
    refs = [weakref.ref(table) for table in decodes]
    assert len(refs) == 6 and all(ref() is not None for ref in refs)
    del worker, store
    decodes.clear()
    gc.collect()
    assert [ref() for ref in refs] == [None] * 6
    assert plan_to_dag._DECODED == {} and plan_to_dag._BROADCAST == {}


def test_equal_bytes_under_another_object_are_decoded_again(ssb_tables, decodes):
    worker, store, _manifest = make_worker_with_store(ssb_tables, partitions=2)
    composition = register_ssb_query(worker, "Q2.1", partitions=2)
    before = worker.invoke_and_run(composition, {"query": b"Q2.1"})
    for key in ("lineorder/part1", "part"):
        blob = store.get_object("ssb", key)
        store.put_object("ssb", key, bytes(bytearray(blob)))  # equal, not the same object
    decodes.clear()
    after = worker.invoke_and_run(composition, {"query": b"Q2.1"})
    assert sorted(table.name for table in decodes) == ["lineorder", "part"]
    assert after.output("result").item("table").data == before.output("result").item("table").data


def test_a_body_that_took_the_wire_path_is_decoded(ssb_tables, decodes):
    _worker, store, _manifest = make_worker_with_store(ssb_tables, partitions=1)
    blob = store.get_object("ssb", "supplier")
    wire = DataItem("supplier", EnvelopeItem("supplier", {"status": 200}, "body_hex", blob).data)
    decodes.clear()
    assert plan_to_dag._stored_table(wire).to_bytes() == blob
    assert len(decodes) == 1


def test_stored_tables_are_unchanged_by_every_query(ssb_tables):
    worker, store, manifest = make_worker_with_store(ssb_tables, partitions=2)
    for query in SSB_QUERY_NAMES:
        assert worker.invoke_and_run(register_ssb_query(worker, query, partitions=2), {"query": query.encode()}).ok
    for key in manifest["objects"]:
        blob = store.get_object("ssb", key)
        stored, table = plan_to_dag._DECODED[id(blob)]
        fresh = Table.from_bytes(blob)
        assert stored is blob and table.column_names == fresh.column_names
        for name in fresh.column_names:
            assert table.column(name).dtype == fresh.column(name).dtype
            assert table.column(name).tolist() == fresh.column(name).tolist()


def _write_into(table, column):
    table.column(column)[0] = table.column(column)[1]


@pytest.mark.parametrize("target", ["part.p_partkey", "part.p_brand1", "lineorder.lo_revenue"])
def test_a_partial_cannot_write_into_a_table_it_was_given(ssb_tables, monkeypatch, target):
    table_name, column = target.split(".")
    if table_name == "lineorder":
        real_probe = ssb.DimensionSide.probe
        monkeypatch.setattr(
            ssb.DimensionSide, "probe", lambda side, chunk: (_write_into(chunk, column), real_probe(side, chunk))[1]
        )
    else:
        monkeypatch.setattr(
            plan_to_dag, "ssb_dimension_side",
            lambda name, tables: (_write_into(tables[table_name], column), ssb_dimension_side(name, tables))[1],
        )
    worker, store, _manifest = make_worker_with_store(ssb_tables, partitions=2)
    result = worker.invoke_and_run(register_ssb_query(worker, "Q2.1", partitions=2), {"query": b"Q2.1"})
    assert not result.ok
    assert "read-only" in str(result.error)
    for key in ("lineorder/part0", "part"):
        blob = store.get_object("ssb", key)
        assert plan_to_dag._DECODED[id(blob)][1].to_bytes() == blob


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


def _decode_every_call(item):
    return Table.from_bytes(parse_http_response_item(item)["body"])


def _side_every_call(query_name, items):
    return ssb_dimension_side(query_name, {item.ident: _decode_every_call(item) for item in items})


@pytest.mark.parametrize("query", SSB_QUERY_NAMES)
def test_shared_decode_equals_decode_per_instance(ssb_tables, query, monkeypatch):
    # Per instance: each partial decodes its chunk and its own dimension
    # tables and builds its own side from them; final decodes the
    # partial results from their bytes.
    shared = _run(ssb_tables, query)
    monkeypatch.setattr(plan_to_dag, "_stored_table", _decode_every_call)
    monkeypatch.setattr(plan_to_dag, "dimension_side", _side_every_call)
    monkeypatch.setattr(plan_to_dag, "_item_table", lambda item: Table.from_bytes(item.data))
    assert shared == _run(ssb_tables, query)
    assert len(shared[2]) > 4 and shared[4] > 0  # a real memory series was compared
