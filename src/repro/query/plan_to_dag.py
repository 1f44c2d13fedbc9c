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
and applies the query's ordering.  Stored tables are decoded once, where
they are stored (:func:`load_ssb_to_store`); an invocation's partials
probe one dimension side built once (:func:`dimension_side`), and partial
and result tables travel by reference (:class:`~repro.query.TableItem`).

This is exactly how "Dandelion quickly boots sandboxes and spreads
query execution across all 32 CPU cores": partition parallelism via an
``each`` edge.
"""

from __future__ import annotations

import json
import weakref

from ..functions.sdk import (
    compute_function,
    format_http_request,
    parse_http_response_item,
    read_items,
    write_item,
)
from ..net.services import ObjectStoreService
from ..worker import WorkerNode
from .columnar import Table, TableItem
from .ssb import SSB_QUERIES, DimensionSide, ssb_dimension_side

__all__ = [
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


_DECODED: dict[int, tuple[bytes, Table]] = {}  # id(stored blob) -> (blob, its table), while the store lives


def load_ssb_to_store(
    tables: dict[str, Table],
    store: ObjectStoreService,
    bucket: str = "ssb",
    partitions: int = 8,
) -> dict:
    """Serialize SSB tables into the object store.

    The fact table is split into ``partitions`` objects
    (``lineorder/part<i>``); dimensions are single objects, and each is
    decoded once, read-only (:func:`_stored_table`).  Returns a manifest
    with object names and total bytes.
    """
    manifest = {"bucket": bucket, "partitions": partitions, "objects": {}, "total_bytes": 0}
    chunks = partition_table(tables["lineorder"], partitions)
    objects = {f"lineorder/part{index}": chunk for index, chunk in enumerate(chunks)}
    objects.update((name, tables[name]) for name in _DIMENSIONS)
    for key, table in objects.items():
        store.put_object(bucket, key, table.to_bytes())
        blob = store.get_object(bucket, key)
        _DECODED[id(blob)] = (blob, Table.from_bytes(blob))
        weakref.finalize(store, _DECODED.pop, id(blob), None)
        manifest["objects"][key] = len(blob)
        manifest["total_bytes"] += len(blob)
    return manifest


def _stored_table(item) -> Table:
    """The table in response ``item``'s body: the one decoded where it is
    stored if the body is that very object, else decoded now."""
    body = parse_http_response_item(item)["body"]
    entry = _DECODED.get(id(body))
    return entry[1] if entry is not None and entry[0] is body else Table.from_bytes(body)


def _item_table(item) -> Table:
    """The table a ``partial`` wrote: held by reference, or decoded."""
    return item.table if isinstance(item, TableItem) else Table.from_bytes(item.data)


_BROADCAST: dict[tuple, DimensionSide] = {}  # (query, id(item), ...) -> its side, while the items live


def dimension_side(query_name: str, items) -> DimensionSide:
    """``query_name``'s dimension side over the tables in broadcast
    response ``items``: built once per tuple of items (by identity, never
    content) and probed read-only by every instance that receives them;
    the entry dies with the items, so each invocation builds anew."""
    key = (query_name, *map(id, items))
    side = _BROADCAST.get(key)
    if side is None:
        tables = {item.ident: _stored_table(item) for item in items}
        side = _BROADCAST[key] = ssb_dimension_side(query_name, tables)
        for item in items:
            weakref.finalize(item, _BROADCAST.pop, key, None)
    return side


def register_ssb_query(
    worker: WorkerNode,
    query_name: str,
    store_host: str = "storage.internal",
    bucket: str = "ssb",
    partitions: int = 8,
) -> str:
    """Register composition + functions for one SSB query; returns its name."""
    if query_name not in SSB_QUERIES:
        raise KeyError(f"unknown SSB query {query_name!r}")
    query = SSB_QUERIES[query_name]
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
        chunk = _stored_table(read_items(vfs, "chunk")[0])
        side = dimension_side(query_name, read_items(vfs, "dims"))
        write_item(vfs, "partial", "agg", TableItem("agg", side.probe(chunk.with_name("lineorder"))))

    @compute_function(
        name=f"{tag}_final",
        compute_cost=lambda n: 50e-6 + n * _SECONDS_PER_INPUT_BYTE,
        memory_limit=1 << 31,
    )
    def final(vfs):
        result = query.merge([_item_table(item) for item in read_items(vfs, "partials")])
        write_item(vfs, "result", "table", TableItem("table", result))
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
