"""The vectorised join and group-by equal the row-loop oracle in
values, row order and column dtypes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.query import Aggregation, Table, TableError, group_aggregate, hash_join
from repro.query.operators import _dense_index, _match_sorted

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
@given(
    int_keys,
    # Unique build keys take the one-search probe, duplicates the general
    # one; drawn about equally often.
    st.one_of(st.lists(st.integers(-3, 6), max_size=10, unique=True), int_keys),
    INT_DTYPES, INT_DTYPES, st.sampled_from(["", "r_"]), st.booleans(),
)
@example([1, 2], [], np.int64, np.int64, "", False)
@example([0, 3, 3], [3], np.int64, np.int32, "", True)
@example([-3, 0, 6, 2, -3], [0, 2, 4], np.int64, np.int64, "", False)  # below min, above max
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
@given(string_keys, st.one_of(st.lists(st.sampled_from(STRINGS), unique=True), string_keys), st.booleans())
@example(["", "ab", "日本", "z", "a"], ["a", "ab", "é", "日本"], True)
def test_join_string_keys_matches_row_loop(left_keys, right_keys, wire):
    left = side("l", np.asarray(left_keys, dtype=object), "lrow")
    right = side("r", np.asarray(right_keys, dtype=object), "rrow")
    if wire:
        left, right = parsed(left), parsed(right)
    assert_identical(hash_join(left, right, "k", "k"), row_loop_join(left, right, "k", "k"))


FLOAT_KEYS = [-1.5, -0.0, 0.0, 0.5, 2.0, float("inf")]
float_keys = st.lists(st.sampled_from(FLOAT_KEYS), max_size=20)


@settings(max_examples=100, deadline=None)
@given(float_keys, st.one_of(st.lists(st.sampled_from(FLOAT_KEYS), unique=True), float_keys))
# -0.0 == 0.0: not unique build keys, so the duplicate path, two matches each.
@example([0.0, -0.0, 0.5], [-0.0, 0.5, 0.0])
def test_join_and_group_on_float_keys_match_row_loop(left_keys, right_keys):
    left = side("l", np.asarray(left_keys, dtype=np.float64), "lrow")
    right = side("r", np.asarray(right_keys, dtype=np.float64), "rrow")
    assert_identical(hash_join(left, right, "k", "k"), row_loop_join(left, right, "k", "k"))
    count = [Aggregation("n", "count")]
    assert_identical(group_aggregate(left, ["k"], count), row_loop_group_aggregate(left, ["k"], count))


def test_nan_join_keys_are_a_table_error():
    # Sorting pairs NaN with NaN, the row loop's dict lookups never do;
    # and NaN != NaN makes a NaN-bearing build side look unique.
    nan = float("nan")
    for left_keys, right_keys in (([nan, 1.0], [1.0, 2.0]), ([1.0], [1.0, nan, nan]), ([1, 2], [nan])):
        left, right = Table("l", {"lk": left_keys}), Table("r", {"rk": right_keys})
        with pytest.raises(TableError, match="'lk' and 'rk' hold NaN"):
            hash_join(left, right, "lk", "rk")


def test_nan_group_keys_form_one_group():
    # As documented on group_aggregate; the row loop's dict lookups keep
    # every NaN row apart (NaN != NaN).
    right = Table("r", {"k": [1.0, float("nan"), float("nan")]})
    count = [Aggregation("n", "count")]
    assert group_aggregate(right, ["k"], count).column("n").tolist() == [1, 2]
    assert row_loop_group_aggregate(right, ["k"], count).column("n").tolist() == [1, 1, 1]


def test_join_of_uint64_with_signed_keys_is_a_table_error():
    # searchsorted would compare as float64, where 2**53 + 1 == 2**53,
    # while NumPy 2's == compares exactly: the two probes would disagree.
    unsigned = Table("u", {"uk": np.asarray([2**53 + 1], dtype=np.uint64)})
    for signed in (np.int8, np.int64):
        other = Table("s", {"sk": np.asarray([7], dtype=signed)})
        for a, b, keys in ((unsigned, other, ("uk", "sk")), (other, unsigned, ("sk", "uk"))):
            with pytest.raises(TableError, match=f"'{keys[0]}' and '{keys[1]}' mix uint64"):
                hash_join(a, b, *keys)
        # Narrower unsigned keys promote exactly (to int64) and still join.
        narrow = Table("n", {"k": np.asarray([7], dtype=np.uint32), "nrow": [0]})
        assert hash_join(narrow, Table("s", {"k": np.asarray([7], dtype=signed)}), "k", "k").num_rows == 1


def test_join_of_string_with_numeric_keys_is_a_table_error():
    left = Table("l", {"k": ["a", "b"]})
    right = Table("r", {"k": [1, 2]})
    with pytest.raises(TableError, match="do not compare"):
        hash_join(left, right, "k", "k")


DENSE_KEY_DTYPES = st.sampled_from([np.int8, np.int32, np.int64, np.uint8, np.uint32])
INTEGER_DTYPES = st.sampled_from([np.int8, np.int32, np.int64, np.uint8, np.uint32, np.uint64])


@st.composite
def dense_searches(draw):
    """Unique ascending integer keys a few hundred apart, and values near
    them or at the ends of their own dtype, each dtype drawn."""
    key_info, value_info = np.iinfo(draw(DENSE_KEY_DTYPES)), np.iinfo(draw(INTEGER_DTYPES))
    base = draw(st.integers(int(key_info.min), int(key_info.max)))
    steps = draw(st.lists(st.integers(0, 300), min_size=1, max_size=20))
    keys = sorted({min(int(key_info.max), base + step) for step in steps})
    near = st.integers(base - 5, base + 305).map(lambda v: min(max(v, int(value_info.min)), int(value_info.max)))
    values = draw(st.lists(st.one_of(near, st.sampled_from([int(value_info.min), int(value_info.max), 0])),
                           max_size=30))
    return np.asarray(keys, dtype=key_info.dtype), np.asarray(values, dtype=value_info.dtype)


@settings(max_examples=300, deadline=None)
@given(dense_searches())
@example((np.asarray([-1, 127], dtype=np.int8), np.asarray([0, 127, -128], dtype=np.int8)))
@example((np.asarray([2**63 - 9, 2**63 - 1], dtype=np.int64), np.asarray([-2**63, 2**63 - 1], dtype=np.int64)))
def test_dense_search_matches_binary_search(case):
    keys, values = case
    dense = _dense_index(keys)
    assert dense is not None
    try:
        expected = _match_sorted(values, keys, "k")
    except TableError:
        with pytest.raises(TableError, match="mix uint64"):
            _match_sorted(values, keys, "k", dense)
        return
    found, at = _match_sorted(values, keys, "k", dense)
    assert (found.tolist(), at.tolist()) == (expected[0].tolist(), expected[1].tolist())


def test_keys_spread_wide_get_no_dense_index():
    assert _dense_index(np.asarray([0, 1 << 20], dtype=np.int64)) is None
    assert _dense_index(np.asarray([1.0, 2.0])) is None
    assert _dense_index(np.asarray([1, 2], dtype=np.uint64)) is None
    assert _dense_index(np.asarray([0, (1 << 20) - 1], dtype=np.int64)).tolist().count(-1) == (1 << 20) - 2


ALL_AGGREGATES = [
    Aggregation("total", "sum", "v"),
    Aggregation("n", "count"),
    Aggregation("lo", "min", "v"),
    Aggregation("hi", "max", "v"),
    Aggregation("mean", "avg", "v"),
]


KEY_DTYPES = [np.int32, np.int64, np.bool_, np.float32]
VALUES = {
    np.int32: st.integers(-(2**31), 2**31 - 1),
    np.int64: st.integers(-(2**40), 2**40),
    np.bool_: st.booleans(),
    # Signed zeros, NaN and sums that round: compared as bytes below.
    np.float32: st.one_of(st.floats(-(2.0**100), 2.0**100, width=32), st.just(float("nan"))),
    np.float64: st.one_of(st.floats(-1e300, 1e300), st.just(float("nan"))),
}


@st.composite
def grouped_tables(draw):
    """Key ``a`` (int32, int64, bool or float32, with -0.0 beside 0.0),
    string key ``s`` and value ``v`` of one of five dtypes."""
    rows = draw(st.integers(0, 40))
    column = lambda elements: st.lists(elements, min_size=rows, max_size=rows)  # noqa: E731
    key_dtype, value_dtype = draw(st.sampled_from(KEY_DTYPES)), draw(st.sampled_from(list(VALUES)))
    keys = draw(column(st.sampled_from([0, 1, 2, 3, -0.0, 0.5])))
    return Table("t", {
        "a": np.asarray(keys, dtype=np.float64).astype(key_dtype),
        "s": np.asarray(draw(column(st.sampled_from(STRINGS))), dtype=object),
        "v": np.asarray(draw(column(VALUES[value_dtype])), dtype=value_dtype),
    })


def outcome(function, *args):
    """The result table, or TableError if it raised one."""
    try:
        return function(*args)
    except TableError:
        return TableError


def assert_same_groups(table, group_by):
    result = outcome(group_aggregate, table, group_by, ALL_AGGREGATES)
    expected = outcome(row_loop_group_aggregate, table, group_by, ALL_AGGREGATES)
    if expected is TableError:
        assert result is TableError
        return
    # Names, dtypes, then values bit for bit (NaN, -0.0) in group order.
    assert result.column_names == expected.column_names
    assert [result.column(n).dtype for n in result.column_names] == \
        [expected.column(n).dtype for n in expected.column_names]
    assert result.to_bytes() == expected.to_bytes()


@settings(max_examples=300, deadline=None)
@given(grouped_tables(), st.sampled_from([[], ["a"], ["s"], ["a", "s"], ["s", "a"]]), st.booleans())
def test_group_aggregate_matches_row_loop(table, group_by, wire):
    # Every aggregate over int32, int64, bool, float32 and float64 values.
    if wire:
        table = parsed(table)
    assert_same_groups(table, group_by)


@pytest.mark.parametrize("dtype", list(VALUES))
def test_aggregates_of_an_empty_table_without_group_columns(dtype):
    # One global group, empty: sum 0, count 0, avg NaN; min and max raise.
    table = Table("t", {"v": np.zeros(0, dtype=dtype)})
    assert_same_groups(table, [])
    no_extremes = [a for a in ALL_AGGREGATES if a.function not in ("min", "max")]
    result = group_aggregate(table, [], no_extremes)
    assert result.to_bytes() == row_loop_group_aggregate(table, [], no_extremes).to_bytes()
    assert result.column("total").tolist() == [0] and np.isnan(result.column("mean")).all()
    for function in ("min", "max"):
        with pytest.raises(TableError, match="empty group"):
            group_aggregate(table, [], [Aggregation("x", function, "v")])
        with pytest.raises(TableError):
            row_loop_group_aggregate(table, [], [Aggregation("x", function, "v")])


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
