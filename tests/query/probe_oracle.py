"""Reference probe for ``test_probe_equivalence``.

What ``DimensionSide.probe`` computed before it grouped on the side's
codes: filter lineorder with the query's ``where``, one ``hash_join`` per
dimension in join order (each gathering every column of the running
table), then the query's ``finish`` step over the joined table.  The four
``finish`` steps are kept here as they were, with each query's group
columns written out, so the declared probe is checked against them on
generated partitions.
"""

from repro.query import Aggregation, Table, filter_rows, group_aggregate, hash_join, sort_rows
from repro.query.ssb import _JOIN_KEYS

_GROUP_COLUMNS = {
    "Q3.1": ["c_nation", "s_nation", "d_year"],
    "Q3.2": ["c_city", "s_city", "d_year"],
    "Q3.3": ["c_city", "s_city", "d_year"],
    "Q3.4": ["c_city", "s_city", "d_year"],
    "Q4.1": ["d_year", "c_nation"],
    "Q4.2": ["d_year", "s_nation", "p_category"],
    "Q4.3": ["d_year", "s_city", "p_brand1"],
}


def chained_join(side, lineorder):
    """The joined table of ``side``'s query over ``lineorder``."""
    where = side.query.where
    joined = lineorder if where is None else filter_rows(lineorder, where)
    for name, dimension in side._sides.items():
        joined = hash_join(joined, dimension, *_JOIN_KEYS[name])
    return joined


def finish_oracle(query: str, joined: Table) -> Table:
    """``query``'s partial result from its joined table."""
    family = query[:2]
    if family == "Q1":
        return _q1_revenue(joined)
    if family == "Q2":
        return _q2_revenue(joined)
    if family == "Q3":
        return _q3_revenue(joined, _GROUP_COLUMNS[query])
    return _q4_profit(joined, _GROUP_COLUMNS[query])


def _q1_revenue(joined: Table) -> Table:
    amounts = joined.column("lo_extendedprice") * joined.column("lo_discount")
    table = Table("q1", {"amount": amounts})
    return group_aggregate(table, [], [Aggregation("revenue", "sum", "amount")])


def _q2_revenue(joined: Table) -> Table:
    result = group_aggregate(
        joined, ["d_year", "p_brand1"], [Aggregation("revenue", "sum", "lo_revenue")]
    )
    return sort_rows(result, ["d_year", "p_brand1"])


def _q3_revenue(joined: Table, group_cols: list) -> Table:
    result = group_aggregate(
        joined, group_cols, [Aggregation("revenue", "sum", "lo_revenue")]
    )
    return sort_rows(result, "revenue", ascending=False)


def _q4_profit(joined: Table, group_cols: list) -> Table:
    profits = joined.column("lo_revenue") - joined.column("lo_supplycost")
    augmented = Table(
        "q4",
        {**{c: joined.column(c) for c in group_cols}, "profit_amount": profits},
    )
    result = group_aggregate(
        augmented, group_cols, [Aggregation("profit", "sum", "profit_amount")]
    )
    return sort_rows(result, group_cols)
