"""The cascading partition probe equals the chain of joins it replaced.

For every SSB query and generated partitions of a small lineorder (empty
ones, ones where no row survives, rows in any order, through the wire
format or not), the table ``DimensionSide.probe`` hands ``finish`` and
the result must equal ``probe_oracle.chained_join``'s in rows, row
order, column order and dtypes.  Malformed keys raise ``TableError``.
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

from .probe_oracle import chained_join
from .test_kernel_equivalence import assert_identical

ROWS = 3000  # of lineorder; every query but Q1.3, Q2.3, Q3.3 and Q3.4 keeps some


@pytest.fixture(scope="module")
def tables():
    return generate_ssb_tables(scale_factor=0.002, seed=1)


@pytest.fixture(scope="module")
def sides(tables):
    """(query, wire) -> a side whose ``finish`` records the joined table
    it is given, and the real ``finish``; each built on first use."""

    class Sides(dict):
        def __missing__(self, key):
            query, wire = key
            dimensions = {name: Table.from_bytes(t.to_bytes()) if wire else t for name, t in tables.items()}
            side = ssb_dimension_side(query, dimensions)
            finish = side._finish

            def recording(joined):
                side.joined = joined
                return finish(joined)

            side._finish = recording
            self[key] = side, finish
            return self[key]

    return Sides()


def assert_probe_matches_chain(side, finish, chunk):
    result = side.probe(chunk)
    joined = chained_join(side, chunk)
    assert_identical(side.joined, joined)
    expected = finish(joined)
    assert_identical(result, expected)
    assert result.to_bytes() == expected.to_bytes()


partitions = st.one_of(
    # Contiguous splits, as partition_table makes them, empty ones included.
    st.lists(st.integers(0, ROWS), max_size=4).map(
        lambda cuts: [np.arange(lo, hi) for lo, hi in zip([0, *sorted(cuts)], [*sorted(cuts), ROWS])]
    ),
    # Any rows in any order, repeats included; mostly nothing survives.
    st.lists(st.lists(st.integers(0, ROWS - 1), max_size=80).map(np.asarray), min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(query=st.sampled_from(SSB_QUERY_NAMES), rows_per_partition=partitions, wire=st.booleans())
@example(query="Q3.4", rows_per_partition=[np.arange(0, 0), np.arange(0, ROWS)], wire=True)
def test_probe_matches_join_chain(tables, sides, query, rows_per_partition, wire):
    side, finish = sides[query, wire]
    lineorder = tables["lineorder"]
    for rows in rows_per_partition:
        chunk = lineorder.take(rows.astype(np.int64))
        if wire:
            chunk = Table.from_bytes(chunk.to_bytes())
        assert_probe_matches_chain(side, finish, chunk)


@pytest.mark.parametrize("query", SSB_QUERY_NAMES)
def test_probe_of_each_partition_matches_join_chain(tables, sides, query):
    # The composition's split, through the wire format as a partial gets it.
    side, finish = sides[query, True]
    for chunk in partition_table(tables["lineorder"].head(ROWS), 4):
        assert_probe_matches_chain(side, finish, Table.from_bytes(chunk.to_bytes()))


def test_nan_foreign_key_is_a_table_error(tables, sides):
    # Q2.1 has no ``where``: every row reaches the first join, on part.
    side, _finish = sides["Q2.1", False]
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
