"""Relational operators over columnar tables.

The set the paper's SSB port needs (§7.7): "The queries include filter,
projection, join, order by, and aggregation operators, which we
implement in Dandelion by porting the Apache Arrow Acero library
operators."  All operators here are pure functions Table -> Table,
vectorised with numpy (no per-row Python loop in join or grouping, and
none per group but for float sums and averages, which keep numpy's
pairwise summation), so they can run inside Dandelion compute functions
unchanged.  Guaranteed, because result tables are compared as bytes:
``hash_join`` pairs come left-major with right positions ascending,
``group_aggregate`` groups in order of first appearance, integer keys
and sums are int64, strings object; a parsed string column that no
operator reads stays undecoded.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Iterable, Optional

import numpy as np

from .columnar import Table, TableError, _numbers

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

    __slots__ = ("_clauses", "_descriptions")

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
    collisions.  Keys must sort against each other; a NaN float key or
    uint64 against signed keys (compared as float64) is a
    :class:`TableError`.  Unique right keys take one search per left row."""
    left_values, right_values = left.column(left_key), right.column(right_key)
    keys = f"join keys {left_key!r} and {right_key!r}"
    try:
        order = np.argsort(right_values, kind="stable")
        sorted_keys = right_values[order]
        duplicates = (sorted_keys[1:] == sorted_keys[:-1]).any()
    except TypeError as exc:
        raise TableError(f"{keys} do not compare: {exc}") from exc
    left_idx, first = _match_sorted(left_values, sorted_keys, keys)
    if duplicates:
        # Each matched left row pairs with its run of equal keys from ``first``.
        counts = np.searchsorted(sorted_keys, left_values[left_idx], side="right") - first
        left_idx = np.repeat(left_idx, counts)
        within = np.arange(len(left_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
        first = np.repeat(first, counts) + within
    right_idx = order[first]
    # The gathered columns, string ones still undecoded.
    columns = {name: array[left_idx] for name, array in left._columns.items()}
    for name, array in right._columns.items():
        out_name = f"{right_prefix}{name}"
        if out_name in columns:
            if name == right_key:
                continue  # equal by construction
            out_name = f"{right.name}.{name}"
        columns[out_name] = array[right_idx]
    return Table._of(left.name, columns, len(left_idx))


def _match_sorted(values: np.ndarray, sorted_keys: np.ndarray, keys: str,
                  dense: Optional[np.ndarray] = None) -> "tuple[np.ndarray, np.ndarray]":
    """Positions of ``values`` found in the ascending ``sorted_keys`` and the
    first key equal to each; ``dense`` is their :func:`_dense_index`, if
    any.  NaN keys (equal to nothing), uint64 against signed keys (sorted
    as float64, so 2**53 + 1 == 2**53) and keys that do not compare are a
    :class:`TableError` naming ``keys``."""
    for array in (values, sorted_keys):
        if array.dtype.kind == "f" and np.isnan(array).any():
            raise TableError(f"{keys} hold NaN")
    kinds = values.dtype.kind, sorted_keys.dtype.kind
    if np.result_type(values.dtype, sorted_keys.dtype).kind == "f" and "f" not in kinds:
        raise TableError(f"{keys} mix uint64 with signed integers")
    if not len(sorted_keys):
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    if dense is not None and values.dtype.kind in "iu":
        # Compared in their own dtypes; only values in range are offset.
        inside = np.flatnonzero((values >= sorted_keys[0]) & (values <= sorted_keys[-1]))
        at = dense[values[inside].astype(np.int64) - int(sorted_keys[0])]
        hit = at >= 0
        return inside[hit], at[hit]
    try:
        at = np.minimum(np.searchsorted(sorted_keys, values), len(sorted_keys) - 1)
        found = np.flatnonzero(sorted_keys[at] == values)
    except TypeError as exc:
        raise TableError(f"{keys} do not compare: {exc}") from exc
    return found, at[found]


_DENSE_SPAN = 1 << 20


def _dense_index(sorted_keys: np.ndarray) -> Optional[np.ndarray]:
    """For unique ascending integer keys (int64 or narrower) at most
    ``_DENSE_SPAN`` apart, the position of each key at ``key -
    sorted_keys[0]`` and -1 between them: a search then costs one gather
    per value, not a binary search."""
    if sorted_keys.dtype.kind not in "iu" or not np.can_cast(sorted_keys.dtype, np.int64) or not len(sorted_keys):
        return None
    low, span = int(sorted_keys[0]), int(sorted_keys[-1]) - int(sorted_keys[0]) + 1
    if span > _DENSE_SPAN:
        return None
    dense = np.full(span, -1, dtype=np.intp)
    dense[sorted_keys.astype(np.int64) - low] = np.arange(len(sorted_keys))
    return dense


class Aggregation:
    """One aggregate: output column name, function, input column."""

    __slots__ = ("output", "function", "column")

    FUNCTIONS = ("sum", "count", "min", "max", "avg")

    def __init__(self, output: str, function: str, column: Optional[str] = None):
        if function not in self.FUNCTIONS:
            raise TableError(f"unknown aggregate function {function!r}")
        if function != "count" and column is None:
            raise TableError(f"aggregate {function!r} needs an input column")
        self.output = output
        self.function = function
        self.column = column

    def compute(self, table: Table, order, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """One value per run, run ``i`` being rows ``order[starts[i]:][:counts[i]]``;
        only the one run of an empty table without group columns is empty."""
        if self.function == "count":
            return counts
        values = table.column(self.column)[order]
        if not len(values):
            if self.function in ("min", "max"):
                raise TableError(f"aggregate {self.function}({self.column}) over an empty group")
            return np.asarray([0 if self.function == "sum" else float("nan")])
        if self.function in ("min", "max"):
            return (np.minimum if self.function == "min" else np.maximum).reduceat(values, starts)
        if self.function == "sum" and values.dtype.kind in "iub":
            return np.add.reduceat(values, starts)  # in the dtype .sum() adds in
        # Float and object sums, every avg: numpy's pairwise sum per run.
        method = "sum" if self.function == "sum" else "mean"
        runs = zip(starts.tolist(), (starts + counts).tolist())
        return np.fromiter((getattr(values[lo:hi], method)() for lo, hi in runs), dtype=object, count=len(starts))


def group_aggregate(
    table: Table,
    group_by: Iterable[str],
    aggregations: Iterable[Aggregation],
) -> Table:
    """Group-by aggregation; with no group columns, one global group.
    Each key column must sort (one type); NaN keys form one group.  Each
    result column has the dtype ``Table`` gives a list of its values."""
    group_by = list(group_by)
    aggregations = list(aggregations)
    if not aggregations:
        raise TableError("group_aggregate needs at least one aggregation")
    if table.num_rows == 0 and group_by:
        return _no_groups(table.name, [*group_by, *(a.output for a in aggregations)])
    codes = []
    for name in group_by:
        try:
            uniques, inverse = np.unique(table.column(name), return_inverse=True)
        except TypeError as exc:
            raise TableError(f"group key {name!r} does not sort: {exc}") from exc
        codes.append((len(uniques), inverse))
    order, starts, groups = _group_runs(codes, by_appearance=True)
    columns = {}
    if group_by:
        first_rows = order[starts[groups]]
        columns = {name: _listed(table.column(name)[first_rows]) for name in group_by}
    return _aggregate_runs(table, columns, aggregations, order, starts, groups)


def _no_groups(name: str, columns: list[str]) -> Table:
    """The result of grouping no rows by at least one column."""
    return Table(name, {column: [] for column in columns})


def _group_runs(codes: "list[tuple[int, np.ndarray]]", by_appearance: bool):
    """Rows in runs of one group each, from ``codes``: per key column, its
    number of distinct values and each row's index among them, in sort
    order.  Returns ``order`` (the rows, run by run, ascending within a
    run), ``starts`` (where each run begins in it, groups by ascending
    key) and ``groups`` (the runs in output order: by first row with
    ``by_appearance``, else by key).  Without key columns, one run of
    every row."""
    if not codes:
        return slice(None), np.zeros(1, dtype=np.intp), slice(None)
    # One code per row, re-densified only where the product of
    # cardinalities would overflow int64.
    mixed, size = 0, 1
    for count, inverse in codes:
        if size * count > 2**63:
            seen, mixed = np.unique(mixed, return_inverse=True)
            size = len(seen)
        mixed, size = mixed * count + inverse, size * count
    order = np.argsort(mixed, kind="stable")
    in_order = mixed[order]
    starts = np.flatnonzero(np.concatenate(([True], in_order[1:] != in_order[:-1])))
    return order, starts, np.argsort(order[starts]) if by_appearance else slice(None)


def _aggregate_runs(table: Table, columns: dict, aggregations: "list[Aggregation]",
                   order, starts: np.ndarray, groups) -> Table:
    """``columns`` (the group keys, one row per group) followed by each of
    ``aggregations`` over ``table``'s runs (:func:`_group_runs`)."""
    counts = np.concatenate((starts[1:], [table.num_rows])) - starts
    for aggregation in aggregations:
        columns[aggregation.output] = _listed(aggregation.compute(table, order, starts, counts)[groups])
    return Table._of(table.name, columns, len(starts))


def _listed(values: np.ndarray) -> np.ndarray:
    """The column ``Table`` builds from ``list(values)``; a numeric array
    (not empty) gets its dtype without a check per value."""
    if values.dtype.kind in "iuf":
        return _numbers(values)
    return Table._normalize(list(values))


def sort_rows(table: Table, by: "str | list", ascending: bool = True) -> Table:
    """Stable sort of the rows by one or several columns, the first
    primary; descending is the reversed ascending order.  Strings sort
    as Python compares them; other objects by their ``str()``."""
    if isinstance(by, str):
        by = [by]
    if not by:
        raise TableError("sort needs at least one column")
    # np.lexsort takes the primary key last.
    order = np.lexsort([_sort_key(table.column(name)) for name in reversed(by)])
    if not ascending:
        order = order[::-1]
    return table.take(order)


def _sort_key(column: np.ndarray) -> np.ndarray:
    if column.dtype.kind != "O":
        return column
    if all(map(isinstance, column, repeat(str))):
        return np.unique(column, return_inverse=True)[1]
    return np.asarray([str(value) for value in column])


def limit(table: Table, count: int) -> Table:
    """First ``count`` rows."""
    if count < 0:
        raise TableError("limit must be non-negative")
    return table.head(count)
