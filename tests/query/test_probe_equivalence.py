"""The partition probe equals the join chain and ``finish`` it replaced.

For every SSB query and generated partitions of a small lineorder (empty
ones, ones where no row survives, rows in any order, through the wire
format or not, group strings that are non-ASCII or end in NUL), the
table ``DimensionSide.probe`` gives must equal
``probe_oracle.finish_oracle`` over ``probe_oracle.chained_join`` in
rows, row order, column order, dtypes and COLT bytes: a partial's blob
is what ``final`` and the simulated byte counts read.  Malformed keys
raise ``TableError``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.query import (
    SSB_QUERY_NAMES,
    Table,
    TableError,
    generate_ssb_tables,
    partition_table,
    ssb_dimension_side,
)

from .probe_oracle import chained_join, finish_oracle
from .test_kernel_equivalence import assert_identical

ROWS = 3000  # of lineorder; every query but Q1.3, Q2.3, Q3.3 and Q3.4 keeps some
SUFFIXES = ["", "\x00", "é", "日本\x00"]


@pytest.fixture(scope="module")
def tables():
    return generate_ssb_tables(scale_factor=0.002, seed=1)


def odd_strings(tables):
    """``tables`` with each part brand and customer and supplier city cut
    to its category or nation and given a suffix by row: every value
    comes plain, NUL-ended and non-ASCII, in the same groups."""
    odd = dict(tables)
    for name, column, cut in (("part", "p_brand1", -2), ("customer", "c_city", -1), ("supplier", "s_city", -1)):
        table = tables[name]
        values = [value[:cut] + SUFFIXES[row % len(SUFFIXES)] for row, value in enumerate(table.column(column))]
        odd[name] = Table(name, {**{c: table.column(c) for c in table.column_names}, column: values})
    return odd


@pytest.fixture(scope="module")
def sides(tables):
    """(query, wire, odd) -> its side, built on first use."""
    odd = odd_strings(tables)

    class Sides(dict):
        def __missing__(self, key):
            query, wire, with_odd_strings = key
            source = odd if with_odd_strings else tables
            dimensions = {name: Table.from_bytes(t.to_bytes()) if wire else t for name, t in source.items()}
            self[key] = ssb_dimension_side(query, dimensions)
            return self[key]

    return Sides()


def assert_probe_matches_oracle(query, side, chunk):
    result = side.probe(chunk)
    expected = finish_oracle(query, chained_join(side, chunk))
    assert_identical(result, expected)
    assert result.to_bytes() == expected.to_bytes()
    return result


partitions = st.one_of(
    # Contiguous splits, as partition_table makes them, empty ones included.
    st.lists(st.integers(0, ROWS), max_size=4).map(
        lambda cuts: [np.arange(lo, hi) for lo, hi in zip([0, *sorted(cuts)], [*sorted(cuts), ROWS])]
    ),
    # Any rows in any order, repeats included; mostly nothing survives.
    st.lists(st.lists(st.integers(0, ROWS - 1), max_size=80).map(np.asarray), min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(query=st.sampled_from(SSB_QUERY_NAMES), rows_per_partition=partitions, wire=st.booleans(),
       odd=st.booleans())
@example(query="Q3.4", rows_per_partition=[np.arange(0, 0), np.arange(0, ROWS)], wire=True, odd=False)
def test_probe_matches_join_chain(tables, sides, query, rows_per_partition, wire, odd):
    side = sides[query, wire, odd]
    lineorder = tables["lineorder"]
    for rows in rows_per_partition:
        chunk = lineorder.take(rows.astype(np.int64))
        if wire:
            chunk = Table.from_bytes(chunk.to_bytes())
        assert_probe_matches_oracle(query, side, chunk)


@pytest.mark.parametrize("query", SSB_QUERY_NAMES)
def test_probe_of_each_partition_matches_join_chain(tables, sides, query):
    # The composition's split, through the wire format as a partial gets it.
    side = sides[query, True, False]
    for chunk in partition_table(tables["lineorder"].head(ROWS), 4):
        assert_probe_matches_oracle(query, side, Table.from_bytes(chunk.to_bytes()))


def numbered(lineorder: Table) -> Table:
    """``lineorder`` with each row's index in column ``row``."""
    columns = {name: lineorder.column(name) for name in lineorder.column_names}
    return Table(lineorder.name, {**columns, "row": np.arange(len(lineorder))})


@pytest.mark.parametrize("query", SSB_QUERY_NAMES)
def test_empty_partition_and_no_survivors(tables, sides, query):
    side = sides[query, False, False]
    lineorder = tables["lineorder"]
    survivors = chained_join(side, numbered(lineorder)).column("row")
    doomed = np.setdiff1d(np.arange(len(lineorder)), survivors)[:100]
    for rows in (np.arange(0), doomed):
        result = assert_probe_matches_oracle(query, side, lineorder.take(rows))
        if query.startswith("Q1"):
            assert result.to_rows() == [{"revenue": 0}]
        else:
            assert result.num_rows == 0
            assert {result.column(name).dtype for name in result.column_names} == {np.dtype(np.int64)}


# Q2.3, Q3.3 and Q3.4 keep no row of this lineorder.
@pytest.mark.parametrize("query", [q for q in SSB_QUERY_NAMES if q not in ("Q2.3", "Q3.3", "Q3.4")])
def test_single_group(tables, sides, query):
    side = sides[query, False, False]
    joined = chained_join(side, numbered(tables["lineorder"]))
    # The surviving rows in the group of the first one, in lineorder order.
    same = np.ones(joined.num_rows, dtype=bool)
    for name in side.query.group_by:
        same &= joined.column(name) == joined.column(name)[0]
    rows = np.sort(joined.column("row")[same])
    result = assert_probe_matches_oracle(query, side, tables["lineorder"].take(rows))
    assert result.num_rows == 1


@pytest.mark.parametrize("wire", [False, True])
@pytest.mark.parametrize("query", ["Q2.1", "Q3.2", "Q4.3"])
def test_group_strings_that_end_in_nul_or_are_not_ascii(tables, sides, query, wire):
    side = sides[query, wire, True]
    lineorder = tables["lineorder"]
    results = [
        assert_probe_matches_oracle(query, side, Table.from_bytes(chunk.to_bytes()) if wire else chunk)
        for chunk in [lineorder, *partition_table(lineorder, 4)]
    ]
    strings = {value for result in results for name in side.query.group_by
               for value in result.column(name).tolist() if isinstance(value, str)}
    assert any(value.endswith("\x00") for value in strings)
    assert any(not value.isascii() for value in strings)
    # Each plain value sorts before its NUL-ended twin, as Python orders them.
    if side.query.order == "keys":
        for result in results:
            keys = list(zip(*(result.column(name).tolist() for name in side.query.group_by)))
            assert keys == sorted(keys)


def test_nan_foreign_key_is_a_table_error(tables, sides):
    # Q2.1 has no ``where``: every row reaches the first join, on part.
    side = sides["Q2.1", False, False]
    lineorder = tables["lineorder"].head(50)
    partkeys = lineorder.column("lo_partkey").astype(np.float64)
    partkeys[7] = np.nan
    columns = {name: lineorder.column(name) for name in lineorder.column_names}
    chunk = Table("lineorder", {**columns, "lo_partkey": partkeys})
    with pytest.raises(TableError, match="'lo_partkey' and 'p_partkey' hold NaN"):
        side.probe(chunk)
    with pytest.raises(TableError, match="'lo_partkey' and 'p_partkey' hold NaN"):
        chained_join(side, chunk)


@pytest.mark.parametrize("query", ["Q1.1", "Q4.1"])
def test_duplicate_dimension_key_is_a_table_error_when_the_side_is_built(tables, query):
    # Two 1993 dates twice: both queries keep them.  A chain of hash_joins
    # would silently double the fact rows that match them.
    date = tables["date"]
    assert date.column("d_year")[[400, 401]].tolist() == [1993, 1993]
    duplicated = {**tables, "date": date.concat(date.take(np.asarray([400, 401])))}
    with pytest.raises(TableError, match="dimension 'date' has a duplicate or NaN key 'd_datekey'"):
        ssb_dimension_side(query, duplicated)
