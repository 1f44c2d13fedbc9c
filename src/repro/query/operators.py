"""Relational operators over columnar tables.

The set the paper's SSB port needs (§7.7): "The queries include filter,
projection, join, order by, and aggregation operators, which we
implement in Dandelion by porting the Apache Arrow Acero library
operators."  All operators here are pure functions Table -> Table,
vectorised with numpy (no per-row Python loop in join or grouping), so
they can run inside Dandelion compute functions unchanged.  Guaranteed,
because result tables are compared as bytes: ``hash_join`` pairs come
left-major with right positions ascending, ``group_aggregate`` groups
in order of first appearance, integer keys and sums are int64, strings
object; a parsed string column that no operator reads stays undecoded.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from .columnar import Table, TableError

__all__ = [
    "Predicate",
    "filter_rows",
    "project",
    "hash_join",
    "group_aggregate",
    "sort_rows",
    "limit",
    "Aggregation",
]

_COMPARATORS: dict[str, Callable] = {
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


class Predicate:
    """A conjunction of simple column comparisons.

    Built via the fluent helpers::

        Predicate.where("year", "==", 1993).and_where("discount", ">=", 1)

    ``between`` adds an inclusive range; ``isin`` a membership test.
    """

    def __init__(self):
        self._clauses: list[Callable[[Table], np.ndarray]] = []
        self._descriptions: list[str] = []

    @classmethod
    def where(cls, column: str, op: str, value) -> "Predicate":
        return cls().and_where(column, op, value)

    @classmethod
    def true(cls) -> "Predicate":
        return cls()

    def and_where(self, column: str, op: str, value) -> "Predicate":
        comparator = _COMPARATORS.get(op)
        if comparator is None:
            raise TableError(f"unknown comparison operator {op!r}")
        self._clauses.append(lambda table: comparator(table.column(column), value))
        self._descriptions.append(f"{column} {op} {value!r}")
        return self

    def between(self, column: str, low, high) -> "Predicate":
        self._clauses.append(
            lambda table: (table.column(column) >= low) & (table.column(column) <= high)
        )
        self._descriptions.append(f"{column} BETWEEN {low!r} AND {high!r}")
        return self

    def isin(self, column: str, values: Iterable) -> "Predicate":
        values = list(values)
        self._clauses.append(lambda table: np.isin(table.column(column), values))
        self._descriptions.append(f"{column} IN {values!r}")
        return self

    def mask(self, table: Table) -> np.ndarray:
        if not self._clauses:
            return np.ones(table.num_rows, dtype=bool)
        mask = self._clauses[0](table)
        for clause in self._clauses[1:]:
            mask = mask & clause(table)
        return mask

    def __repr__(self) -> str:
        return " AND ".join(self._descriptions) or "TRUE"


def filter_rows(table: Table, predicate: Predicate) -> Table:
    """Keep the rows satisfying the predicate."""
    return table.take(predicate.mask(table))


def project(table: Table, columns: Iterable[str]) -> Table:
    """Keep only the named columns."""
    return table.select(columns)


def hash_join(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    right_prefix: str = "",
) -> Table:
    """Inner equi-join (stable argsort of the right keys, probed with
    ``searchsorted``); right-side columns may get a prefix to avoid name
    collisions.  Keys must sort against each other and hold no NaN (it
    would pair with NaN); uint64 against int64 compares as float64."""
    left_values, right_values = left.column(left_key), right.column(right_key)
    try:
        order = np.argsort(right_values, kind="stable")
        sorted_keys = right_values[order]
        first = np.searchsorted(sorted_keys, left_values, side="left")
        counts = np.searchsorted(sorted_keys, left_values, side="right") - first
    except TypeError as exc:
        raise TableError(f"join keys {left_key!r} and {right_key!r} do not compare: {exc}") from exc
    left_idx = np.repeat(np.arange(len(left_values)), counts)
    # Position of each output pair inside its left row's run of matches.
    within = np.arange(len(left_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
    right_idx = order[np.repeat(first, counts) + within]
    # The gathered columns, string ones still undecoded.
    columns = dict(left.take(left_idx)._columns)
    gathered = right.take(right_idx)._columns
    for name in right.column_names:
        out_name = f"{right_prefix}{name}"
        if out_name in columns:
            if name == right_key:
                continue  # equal by construction
            out_name = f"{right.name}.{name}"
        columns[out_name] = gathered[name]
    return Table(left.name, columns)


class Aggregation:
    """One aggregate: output column name, function, input column."""

    FUNCTIONS = ("sum", "count", "min", "max", "avg")

    def __init__(self, output: str, function: str, column: Optional[str] = None):
        if function not in self.FUNCTIONS:
            raise TableError(f"unknown aggregate function {function!r}")
        if function != "count" and column is None:
            raise TableError(f"aggregate {function!r} needs an input column")
        self.output = output
        self.function = function
        self.column = column

    def compute(self, table: Table, row_groups: "list[np.ndarray]") -> list:
        if self.function == "count":
            return [len(group) for group in row_groups]
        values = table.column(self.column)
        if self.function == "sum":
            return [values[group].sum() if len(group) else 0 for group in row_groups]
        if self.function in ("min", "max") and not all(map(len, row_groups)):
            raise TableError(f"aggregate {self.function}({self.column}) over an empty group")
        if self.function == "min":
            return [values[group].min() for group in row_groups]
        if self.function == "max":
            return [values[group].max() for group in row_groups]
        # avg
        return [values[group].mean() if len(group) else float("nan") for group in row_groups]


def group_aggregate(
    table: Table,
    group_by: Iterable[str],
    aggregations: Iterable[Aggregation],
) -> Table:
    """Group-by aggregation; with no group columns, one global group.
    Each key column must sort (one type); NaN keys form one group."""
    group_by = list(group_by)
    aggregations = list(aggregations)
    if not aggregations:
        raise TableError("group_aggregate needs at least one aggregation")
    if table.num_rows == 0 and group_by:
        return Table(table.name, {**{g: [] for g in group_by}, **{a.output: [] for a in aggregations}})
    if group_by:
        # One dense code per row, re-densified after every key column
        # so that no product of cardinalities can overflow.
        codes = np.zeros(table.num_rows, dtype=np.int64)
        try:
            for name in group_by:
                uniques, inverse = np.unique(table.column(name), return_inverse=True)
                codes = np.unique(codes * len(uniques) + inverse, return_inverse=True)[1]
        except TypeError as exc:
            raise TableError(f"group key {name!r} does not sort: {exc}") from exc
        # Stable: rows ascending inside a group; groups by first appearance.
        by_code = np.argsort(codes, kind="stable")
        row_groups = np.split(by_code, np.cumsum(np.bincount(codes))[:-1])
        row_groups.sort(key=lambda rows: rows[0])
        first_rows = [rows[0] for rows in row_groups]
        columns = {name: list(table.column(name)[first_rows]) for name in group_by}
    else:
        row_groups = [np.arange(table.num_rows)]
        columns = {}
    for aggregation in aggregations:
        columns[aggregation.output] = aggregation.compute(table, row_groups)
    return Table(table.name, columns)


def sort_rows(table: Table, by: "str | list", ascending: bool = True) -> Table:
    """Sort rows by one or several columns (last key is primary per
    numpy lexsort, so we reverse the list)."""
    if isinstance(by, str):
        by = [by]
    if not by:
        raise TableError("sort needs at least one column")
    keys = [table.column(name) for name in reversed(by)]
    # Object (string) columns need conversion for lexsort.
    keys = [
        np.asarray([str(v) for v in key]) if key.dtype.kind == "O" else key
        for key in keys
    ]
    order = np.lexsort(keys)
    if not ascending:
        order = order[::-1]
    return table.take(order)


def limit(table: Table, count: int) -> Table:
    """First ``count`` rows."""
    if count < 0:
        raise TableError("limit must be non-negative")
    return table.head(count)
