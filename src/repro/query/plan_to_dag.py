"""Compiling SSB queries onto Dandelion compositions (§7.7).

A query runs as the DAG:

.. code-block:: text

    gen ──lo_requests──▶ fetch_lo (comm, each) ──▶ partial (each) ─┐
     └──dim_requests──▶ fetch_dims (comm, all) ──▶────────────────┤
                                                                  ▼
                                                        final (all) ──▶ result

``gen`` formats one HTTP GET per lineorder partition plus one per
dimension table; the communication function fetches them from the
(simulated) S3 bucket; one ``partial`` instance per partition joins its
chunk with the broadcast dimensions and computes partial aggregates;
``final`` merges partials (all SSB aggregates are re-aggregable sums)
and applies the query's ordering.

This is exactly how "Dandelion quickly boots sandboxes and spreads
query execution across all 32 CPU cores": partition parallelism via an
``each`` edge.
"""

from __future__ import annotations

import json

from ..functions.sdk import (
    compute_function,
    format_http_request,
    parse_http_response_item,
    read_items,
    write_item,
)
from ..net.services import ObjectStoreService
from ..worker import WorkerNode
from .columnar import Table
from .operators import Aggregation, group_aggregate, sort_rows
from .ssb import SSB_QUERY_NAMES, run_ssb_query

__all__ = [
    "QueryShape",
    "QUERY_SHAPES",
    "load_ssb_to_store",
    "register_ssb_query",
    "partition_table",
]

_DIMENSIONS = ("date", "customer", "supplier", "part")

# Per-byte processing cost of the partial operator (vectorised scan +
# multi-way join probe, ~250 MB/s per core) used for the modelled
# execution time.
_SECONDS_PER_INPUT_BYTE = 4e-9
_PARTIAL_BASE_SECONDS = 200e-6


class QueryShape:
    """Re-aggregation metadata for one SSB query."""

    def __init__(self, group_by: list[str], value_column: str, order_by, descending: bool):
        self.group_by = group_by
        self.value_column = value_column
        self.order_by = order_by
        self.descending = descending


QUERY_SHAPES: dict[str, QueryShape] = {
    "Q1.1": QueryShape([], "revenue", None, False),
    "Q1.2": QueryShape([], "revenue", None, False),
    "Q1.3": QueryShape([], "revenue", None, False),
    "Q2.1": QueryShape(["d_year", "p_brand1"], "revenue", ["d_year", "p_brand1"], False),
    "Q2.2": QueryShape(["d_year", "p_brand1"], "revenue", ["d_year", "p_brand1"], False),
    "Q2.3": QueryShape(["d_year", "p_brand1"], "revenue", ["d_year", "p_brand1"], False),
    "Q3.1": QueryShape(["c_nation", "s_nation", "d_year"], "revenue", "revenue", True),
    "Q3.2": QueryShape(["c_city", "s_city", "d_year"], "revenue", "revenue", True),
    "Q3.3": QueryShape(["c_city", "s_city", "d_year"], "revenue", "revenue", True),
    "Q3.4": QueryShape(["c_city", "s_city", "d_year"], "revenue", "revenue", True),
    "Q4.1": QueryShape(["d_year", "c_nation"], "profit", ["d_year", "c_nation"], False),
    "Q4.2": QueryShape(["d_year", "s_nation", "p_category"], "profit", ["d_year", "s_nation", "p_category"], False),
    "Q4.3": QueryShape(["d_year", "s_city", "p_brand1"], "profit", ["d_year", "s_city", "p_brand1"], False),
}


def partition_table(table: Table, partitions: int) -> list[Table]:
    """Split a table row-wise into ``partitions`` nearly equal chunks."""
    if partitions < 1:
        raise ValueError("partitions must be >= 1")
    import numpy as np

    boundaries = np.linspace(0, table.num_rows, partitions + 1, dtype=int)
    return [
        table.take(np.arange(boundaries[i], boundaries[i + 1]))
        for i in range(partitions)
    ]


def load_ssb_to_store(
    tables: dict[str, Table],
    store: ObjectStoreService,
    bucket: str = "ssb",
    partitions: int = 8,
) -> dict:
    """Serialize SSB tables into the object store.

    The fact table is split into ``partitions`` objects
    (``lineorder/part<i>``); dimensions are single objects.  Returns a
    manifest with object names and total bytes.
    """
    manifest = {"bucket": bucket, "partitions": partitions, "objects": {}, "total_bytes": 0}
    for index, chunk in enumerate(partition_table(tables["lineorder"], partitions)):
        key = f"lineorder/part{index}"
        blob = chunk.to_bytes()
        store.put_object(bucket, key, blob)
        manifest["objects"][key] = len(blob)
        manifest["total_bytes"] += len(blob)
    for name in _DIMENSIONS:
        blob = tables[name].to_bytes()
        store.put_object(bucket, name, blob)
        manifest["objects"][name] = len(blob)
        manifest["total_bytes"] += len(blob)
    return manifest


def register_ssb_query(
    worker: WorkerNode,
    query_name: str,
    store_host: str = "storage.internal",
    bucket: str = "ssb",
    partitions: int = 8,
) -> str:
    """Register composition + functions for one SSB query; returns its name."""
    if query_name not in SSB_QUERY_NAMES:
        raise KeyError(f"unknown SSB query {query_name!r}")
    shape = QUERY_SHAPES[query_name]
    tag = query_name.replace(".", "_").lower()
    composition_name = f"ssb_{tag}"

    @compute_function(name=f"{tag}_gen", compute_cost=20e-6)
    def gen(vfs):
        for index in range(partitions):
            write_item(
                vfs, "lo_requests", f"p{index}",
                format_http_request("GET", f"http://{store_host}/{bucket}/lineorder/part{index}"),
            )
        for dimension in _DIMENSIONS:
            write_item(
                vfs, "dim_requests", dimension,
                format_http_request("GET", f"http://{store_host}/{bucket}/{dimension}"),
            )

    @compute_function(
        name=f"{tag}_partial",
        compute_cost=lambda n: _PARTIAL_BASE_SECONDS + n * _SECONDS_PER_INPUT_BYTE,
        memory_limit=1 << 31,
    )
    def partial(vfs):
        chunk_item = read_items(vfs, "chunk")[0]
        chunk = Table.from_bytes(parse_http_response_item(chunk_item)["body"])
        tables = {"lineorder": chunk.with_name("lineorder")}
        for item in read_items(vfs, "dims"):
            body = parse_http_response_item(item)["body"]
            tables[item.ident] = Table.from_bytes(body)
        result = run_ssb_query(query_name, tables)
        write_item(vfs, "partial", "agg", result.to_bytes())

    @compute_function(
        name=f"{tag}_final",
        compute_cost=lambda n: 50e-6 + n * _SECONDS_PER_INPUT_BYTE,
        memory_limit=1 << 31,
    )
    def final(vfs):
        partials = [Table.from_bytes(item.data) for item in read_items(vfs, "partials")]
        merged = partials[0]
        for extra in partials[1:]:
            merged = merged.concat(extra)
        result = group_aggregate(
            merged,
            shape.group_by,
            [Aggregation(shape.value_column, "sum", shape.value_column)],
        )
        if shape.order_by:
            result = sort_rows(result, shape.order_by, ascending=not shape.descending)
        write_item(vfs, "result", "table", result.to_bytes())
        write_item(
            vfs, "result", "rows",
            json.dumps(result.to_rows(), default=str).encode(),
        )

    for binary in (gen, partial, final):
        worker.frontend.register_function(binary)
    worker.frontend.register_composition(
        f"""
        composition {composition_name} {{
            compute gen uses {tag}_gen in(query) out(lo_requests, dim_requests);
            comm fetch_lo;
            comm fetch_dims;
            compute partial uses {tag}_partial in(chunk, dims) out(partial);
            compute final uses {tag}_final in(partials) out(result);
            input query -> gen.query;
            gen.lo_requests -> fetch_lo.request [all];
            gen.dim_requests -> fetch_dims.request [all];
            fetch_lo.response -> partial.chunk [each];
            fetch_dims.response -> partial.dims [all];
            partial.partial -> final.partials [all];
            output final.result -> result;
        }}
        """
    )
    return composition_name
