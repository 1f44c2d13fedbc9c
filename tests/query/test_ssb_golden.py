"""SSB result tables are pinned byte for byte.

``tests/golden/ssb_digests.json`` holds the sha256 of every query's
result-table bytes, from ``run_ssb_query`` and from the composition
path's ``result/table`` item, recorded before the query kernel was
vectorised.  The perf benchmark's ``kpi_digest`` hashes the same bytes,
so join order, group order and column dtypes may not drift.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.query import (
    SSB_QUERY_NAMES,
    Table,
    generate_ssb_tables,
    register_ssb_query,
    run_ssb_query,
)

from .test_plan_to_dag import make_worker_with_store

GOLDEN = json.loads((Path(__file__).parents[1] / "golden" / "ssb_digests.json").read_text())


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@pytest.fixture(scope="module")
def tables():
    return generate_ssb_tables(scale_factor=GOLDEN["scale_factor"], seed=GOLDEN["seed"])


def test_golden_covers_all_queries():
    assert list(GOLDEN["local"]) == SSB_QUERY_NAMES == list(GOLDEN["composition"])


@pytest.mark.parametrize("wire", [False, True], ids=["generated", "parsed"])
@pytest.mark.parametrize("query", SSB_QUERY_NAMES)
def test_local_result_bytes(tables, query, wire):
    # "parsed": the inputs went through the wire format, so string
    # columns reach the operators undecoded, as they do in a partial.
    if wire:
        tables = {name: Table.from_bytes(table.to_bytes()) for name, table in tables.items()}
    assert digest(run_ssb_query(query, tables).to_bytes()) == GOLDEN["local"][query]


def test_composition_result_bytes(tables):
    worker, _store, _manifest = make_worker_with_store(tables, partitions=GOLDEN["partitions"])
    produced = {}
    for query in SSB_QUERY_NAMES:
        composition = register_ssb_query(worker, query, partitions=GOLDEN["partitions"])
        result = worker.invoke_and_run(composition, {"query": query.encode()})
        assert result.ok, query
        produced[query] = digest(bytes(result.output("result").item("table").data))
    assert produced == GOLDEN["composition"]
