"""Integration tests: SSB queries compiled onto Dandelion compositions."""

import numpy as np
import pytest

from repro.net.services import ObjectStoreService
from repro.query import (
    Table,
    generate_ssb_tables,
    load_ssb_to_store,
    partition_table,
    register_ssb_query,
    run_ssb_query,
)
from repro.worker import WorkerConfig, WorkerNode


@pytest.fixture(scope="module")
def ssb_tables():
    return generate_ssb_tables(scale_factor=0.002, seed=1)


def make_worker_with_store(ssb_tables, partitions=4):
    worker = WorkerNode(WorkerConfig(total_cores=8, control_plane_enabled=False))
    store = ObjectStoreService()
    worker.network.register(store)
    manifest = load_ssb_to_store(ssb_tables, store, partitions=partitions)
    return worker, store, manifest


def test_partition_table_covers_all_rows(ssb_tables):
    lineorder = ssb_tables["lineorder"]
    chunks = partition_table(lineorder, 5)
    assert len(chunks) == 5
    assert sum(c.num_rows for c in chunks) == lineorder.num_rows
    with pytest.raises(ValueError):
        partition_table(lineorder, 0)


def test_manifest_counts(ssb_tables):
    _worker, store, manifest = make_worker_with_store(ssb_tables, partitions=6)
    assert manifest["partitions"] == 6
    assert len(manifest["objects"]) == 6 + 4
    sizes = {name: len(store.get_object("ssb", name)) for name in manifest["objects"]}
    assert sizes == manifest["objects"]
    assert manifest["total_bytes"] == sum(sizes.values()) > 0


@pytest.mark.parametrize("query_name", ["Q1.1", "Q2.1", "Q3.1", "Q4.2"])
def test_dag_result_matches_local(ssb_tables, query_name):
    worker, _store, _manifest = make_worker_with_store(ssb_tables)
    composition = register_ssb_query(worker, query_name, partitions=4)
    result = worker.invoke_and_run(composition, {"query": query_name.encode()})
    assert result.ok
    dag_table = Table.from_bytes(result.output("result").item("table").data)
    local = run_ssb_query(query_name, ssb_tables)
    assert dag_table.num_rows == local.num_rows
    value_col = "profit" if query_name.startswith("Q4") else "revenue"
    assert np.array_equal(
        np.sort(dag_table.column(value_col)), np.sort(local.column(value_col))
    )


def test_dag_parallelism_uses_partitions(ssb_tables):
    worker, _store, _m = make_worker_with_store(ssb_tables, partitions=4)
    composition = register_ssb_query(worker, "Q1.1", partitions=4)
    result = worker.invoke_and_run(composition, {"query": b"x"})
    assert result.ok
    # gen + 4 partials + final = 6 compute tasks; 2 comm tasks.
    assert worker.compute_group.tasks_executed == 6
    assert worker.comm_group.tasks_executed == 2


def test_unknown_query_name_rejected(ssb_tables):
    worker, _store, _m = make_worker_with_store(ssb_tables)
    with pytest.raises(KeyError):
        register_ssb_query(worker, "Q7.7")


def test_rows_output_is_json(ssb_tables):
    import json
    worker, _store, _m = make_worker_with_store(ssb_tables)
    composition = register_ssb_query(worker, "Q2.1", partitions=4)
    result = worker.invoke_and_run(composition, {"query": b"x"})
    rows = json.loads(result.output("result").item("rows").data)
    assert isinstance(rows, list)
    if rows:
        assert "revenue" in rows[0]


@pytest.mark.parametrize("partitions", [2, 8])
def test_final_merges_its_partials_with_one_concat(ssb_tables, monkeypatch, partitions):
    # One multi-way concat, not P - 1 pairwise ones (O(P^2) rows copied);
    # its bytes equal a pairwise fold's.
    real = Table.concat
    calls = []

    def counting(self, *others):
        calls.append(len(others))
        return real(self, *others)

    def pairwise(self, *others):
        merged = self
        for other in others:
            merged = real(merged, other)
        return merged

    def run(concat):
        monkeypatch.setattr(Table, "concat", concat)
        worker, _store, _m = make_worker_with_store(ssb_tables, partitions=partitions)
        composition = register_ssb_query(worker, "Q2.1", partitions=partitions)
        result = worker.invoke_and_run(composition, {"query": b"Q2.1"})
        assert result.ok
        return [(item.key, item.data) for item in result.output("result")]

    merged_once = run(counting)
    assert calls == [partitions - 1]
    assert merged_once == run(pairwise)
