"""The vectorised join and group-by equal the row-loop oracle in
values, row order and column dtypes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import Aggregation, Table, TableError, group_aggregate, hash_join

from .row_oracle import row_loop_group_aggregate, row_loop_join

STRINGS = ["", "a", "b", "ab", "MFGR#12", "é", "日本"]
INT_DTYPES = st.sampled_from([np.int32, np.int64])
int_keys = st.lists(st.integers(-3, 6), max_size=30)
string_keys = st.lists(st.sampled_from(STRINGS), max_size=30)


def assert_identical(result: Table, expected: Table):
    assert result.name == expected.name
    assert result.column_names == expected.column_names
    for name in expected.column_names:
        assert result.column(name).dtype == expected.column(name).dtype, name
        assert result.column(name).tolist() == expected.column(name).tolist(), name


def parsed(table: Table) -> Table:
    """Through the wire format, so string columns arrive undecoded."""
    return Table.from_bytes(table.to_bytes())


def side(name, keys, row_column):
    return Table(name, {
        "k": keys,
        "tag": np.asarray([f"{name}{key}" for key in keys], dtype=object),
        row_column: np.arange(len(keys)),
    })


@settings(max_examples=150, deadline=None)
@given(int_keys, int_keys, INT_DTYPES, INT_DTYPES, st.sampled_from(["", "r_"]), st.booleans())
def test_join_int_keys_matches_row_loop(left_keys, right_keys, left_dtype, right_dtype, prefix, wire):
    # Duplicate keys on both sides, empty sides, int32 against int64,
    # a shared key name (dropped) and a shared column name (qualified).
    left = side("l", np.asarray(left_keys, dtype=left_dtype), "lrow")
    right = side("r", np.asarray(right_keys, dtype=right_dtype), "rrow")
    if wire:
        left, right = parsed(left), parsed(right)
    assert_identical(
        hash_join(left, right, "k", "k", right_prefix=prefix),
        row_loop_join(left, right, "k", "k", right_prefix=prefix),
    )


@settings(max_examples=100, deadline=None)
@given(string_keys, string_keys, st.booleans())
def test_join_string_keys_matches_row_loop(left_keys, right_keys, wire):
    left = side("l", np.asarray(left_keys, dtype=object), "lrow")
    right = side("r", np.asarray(right_keys, dtype=object), "rrow")
    if wire:
        left, right = parsed(left), parsed(right)
    assert_identical(hash_join(left, right, "k", "k"), row_loop_join(left, right, "k", "k"))


@settings(max_examples=100, deadline=None)
@given(*[st.lists(st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, float("inf")]), max_size=20)] * 2)
def test_join_and_group_on_float_keys_match_row_loop(left_keys, right_keys):
    left = side("l", np.asarray(left_keys, dtype=np.float64), "lrow")
    right = side("r", np.asarray(right_keys, dtype=np.float64), "rrow")
    assert_identical(hash_join(left, right, "k", "k"), row_loop_join(left, right, "k", "k"))
    count = [Aggregation("n", "count")]
    assert_identical(group_aggregate(left, ["k"], count), row_loop_group_aggregate(left, ["k"], count))


def test_nan_keys_are_outside_the_contract():
    # Pinned, not promised: sorting treats NaN as equal to NaN, the row
    # loops (dict lookups) never did.  The docstrings ask for NaN-free keys.
    nan = float("nan")
    left = Table("l", {"k": [nan, 1.0], "lrow": [0, 1]})
    right = Table("r", {"k": [1.0, nan, nan], "rrow": [0, 1, 2]})
    joined = hash_join(left, right, "k", "k")
    assert joined.column("lrow").tolist() == [0, 0, 1]
    assert joined.column("rrow").tolist() == [1, 2, 0]
    assert row_loop_join(left, right, "k", "k").column("rrow").tolist() == [0]
    count = [Aggregation("n", "count")]
    assert group_aggregate(right, ["k"], count).column("n").tolist() == [1, 2]
    assert row_loop_group_aggregate(right, ["k"], count).column("n").tolist() == [1, 1, 1]


def test_join_of_uint64_with_int64_keys_compares_as_float64():
    # Also outside the contract (one signedness): above 2**53 distinct
    # keys can collide once both sides are promoted to float64.
    left = Table("l", {"k": np.asarray([2**53 + 1], dtype=np.uint64)})
    right = Table("r", {"k": np.asarray([2**53], dtype=np.int64), "rrow": [0]})
    assert hash_join(left, right, "k", "k").num_rows == 1
    assert row_loop_join(left, right, "k", "k").num_rows == 0


def test_join_of_string_with_numeric_keys_is_a_table_error():
    left = Table("l", {"k": ["a", "b"]})
    right = Table("r", {"k": [1, 2]})
    with pytest.raises(TableError, match="do not compare"):
        hash_join(left, right, "k", "k")


ALL_AGGREGATES = [
    Aggregation("total", "sum", "v"),
    Aggregation("n", "count"),
    Aggregation("lo", "min", "v"),
    Aggregation("hi", "max", "v"),
    Aggregation("mean", "avg", "v"),
]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.sampled_from(STRINGS), st.integers(-(2**40), 2**40)),
        max_size=40,
    ),
    st.sampled_from([["a"], ["s"], ["a", "s"], ["s", "a"]]),
    INT_DTYPES,
    st.booleans(),
)
def test_group_aggregate_matches_row_loop(rows, group_by, key_dtype, wire):
    table = Table("t", {
        "a": np.asarray([row[0] for row in rows], dtype=key_dtype),
        "s": np.asarray([row[1] for row in rows], dtype=object),
        "v": np.asarray([row[2] for row in rows], dtype=np.int64),
    })
    if wire:
        table = parsed(table)
    assert_identical(
        group_aggregate(table, group_by, ALL_AGGREGATES),
        row_loop_group_aggregate(table, group_by, ALL_AGGREGATES),
    )


def test_group_codes_do_not_overflow_on_many_wide_keys():
    # Nine key columns of 256 distinct values each.  A combined code
    # built as the plain product of cardinalities multiplies k0 by
    # 256**8 == 2**64, i.e. drops it: rows i and i + 256 differ in k0
    # only and would fall into one group.
    rng = np.random.default_rng(0)
    columns = {"k0": np.concatenate([np.arange(256), (np.arange(256) + 1) % 256])}
    for index in range(1, 9):
        columns[f"k{index}"] = np.tile(rng.permutation(256), 2)
    table = Table("t", {**columns, "v": rng.integers(0, 1000, size=512)})
    aggregates = [Aggregation("total", "sum", "v"), Aggregation("n", "count")]
    result = group_aggregate(table, list(columns), aggregates)
    assert result.num_rows == 512
    assert_identical(result, row_loop_group_aggregate(table, list(columns), aggregates))


def test_group_key_of_mixed_types_is_a_table_error():
    table = Table("t", {"k": np.asarray(["a", None], dtype=object), "v": [1, 2]})
    with pytest.raises(TableError, match="does not sort"):
        group_aggregate(table, ["k"], [Aggregation("n", "count")])
