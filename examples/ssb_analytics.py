#!/usr/bin/env python3
"""Elastic SQL analytics: SSB queries as Dandelion compositions (§7.7).

Generates Star Schema Benchmark data, loads it into a simulated S3
bucket as partitioned objects, compiles each query into a Dandelion
DAG (partition-parallel scan via an ``each`` edge, broadcast dimension
tables, re-aggregating merge), runs it, and cross-checks the result
against single-process local execution.  Also prices each query on the
Athena model for comparison (Fig 9).

Run:  python examples/ssb_analytics.py
"""

import json
from collections import Counter

from repro import WorkerConfig, WorkerNode
from repro.net import ObjectStoreService
from repro.query import (
    AthenaModel,
    Ec2CostModel,
    Table,
    generate_ssb_tables,
    load_ssb_to_store,
    register_ssb_query,
    run_ssb_query,
)

QUERIES = ["Q1.1", "Q2.1", "Q3.1", "Q4.1"]
PARTITIONS = 16


def row_multiset(table):
    return Counter(tuple(sorted(row.items())) for row in table.to_rows())


def main():
    tables = generate_ssb_tables(scale_factor=0.005, seed=3)
    print("generated SSB tables:",
          ", ".join(f"{name}={table.num_rows} rows" for name, table in tables.items()))

    worker = WorkerNode(WorkerConfig(total_cores=32))
    store = ObjectStoreService()
    worker.network.register(store)
    manifest = load_ssb_to_store(tables, store, partitions=PARTITIONS)
    print(f"loaded {manifest['total_bytes'] / 1e6:.2f} MB into s3://{manifest['bucket']} "
          f"({PARTITIONS} lineorder partitions + 4 dimension objects)\n")

    athena = AthenaModel()
    ec2 = Ec2CostModel()
    for query_name in QUERIES:
        composition = register_ssb_query(worker, query_name, partitions=PARTITIONS)
        result = worker.invoke_and_run(composition, {"query": query_name.encode()})
        dag_table = Table.from_bytes(result.output("result").item("table").data)
        local = run_ssb_query(query_name, tables)
        # Q3.x orders by revenue alone, so ties may come in any order.
        assert row_multiset(dag_table) == row_multiset(local), "distributed != local!"
        rows = json.loads(result.output("result").item("rows").data)
        athena_s = athena.latency_seconds(manifest["total_bytes"], joins=3)
        print(f"{query_name}: {dag_table.num_rows} rows in {result.latency * 1e3:.1f} ms "
              f"(Athena model: {athena_s:.2f} s); "
              f"cost {ec2.cost_cents(result.latency):.5f}¢ vs "
              f"Athena {athena.cost_cents(manifest['total_bytes']):.3f}¢")
        if rows:
            print(f"   first row: {rows[0]}")
    print("\nall distributed results verified against local execution")


if __name__ == "__main__":
    main()
