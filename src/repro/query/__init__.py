"""Columnar query engine, SSB benchmark, mini-SQL, and Athena model."""

from .athena import AthenaModel, Ec2CostModel, M7A_8XLARGE_HOURLY_USD
from .columnar import Table, TableError, TableItem
from .operators import (
    Aggregation,
    Predicate,
    filter_rows,
    group_aggregate,
    hash_join,
    limit,
    project,
    sort_rows,
)
from .plan_to_dag import (
    load_ssb_to_store,
    partition_table,
    register_ssb_query,
)
from .sql import SqlDatabase, SqlError, SqlQuery, parse_sql
from .ssb import (
    SSB_QUERY_NAMES,
    DimensionSide,
    generate_ssb_tables,
    run_ssb_query,
    ssb_dimension_side,
)

__all__ = [
    "AthenaModel",
    "Ec2CostModel",
    "M7A_8XLARGE_HOURLY_USD",
    "Table",
    "TableError",
    "TableItem",
    "Aggregation",
    "Predicate",
    "filter_rows",
    "group_aggregate",
    "hash_join",
    "limit",
    "project",
    "sort_rows",
    "load_ssb_to_store",
    "partition_table",
    "register_ssb_query",
    "SqlDatabase",
    "SqlError",
    "SqlQuery",
    "parse_sql",
    "SSB_QUERY_NAMES",
    "DimensionSide",
    "generate_ssb_tables",
    "run_ssb_query",
    "ssb_dimension_side",
]
