"""Tests for columnar tables and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import Table, TableError


def sample_table():
    return Table("t", {"id": [1, 2, 3], "name": ["a", "b", "c"], "score": [1.5, 2.5, 3.5]})


def test_basic_shape():
    table = sample_table()
    assert table.num_rows == 3
    assert table.column_names == ["id", "name", "score"]
    assert len(table) == 3
    assert "id" in table
    assert "ghost" not in table


def test_column_dtypes():
    table = sample_table()
    assert table.column("id").dtype == np.int64
    assert table.column("score").dtype == np.float64
    assert table.column("name").dtype == object


def test_unequal_columns_rejected():
    with pytest.raises(TableError):
        Table("t", {"a": [1, 2], "b": [1]})


def test_empty_name_rejected():
    with pytest.raises(TableError):
        Table("", {"a": [1]})


def test_missing_column_rejected():
    with pytest.raises(TableError):
        sample_table().column("ghost")


def test_from_rows_to_rows_roundtrip():
    rows = [{"x": 1, "y": "p"}, {"x": 2, "y": "q"}]
    table = Table.from_rows("t", rows)
    assert table.to_rows() == rows


def test_to_rows_returns_python_types():
    rows = sample_table().to_rows()
    assert isinstance(rows[0]["id"], int)
    assert isinstance(rows[0]["score"], float)


def test_take_with_indices_and_mask():
    table = sample_table()
    subset = table.take(np.array([2, 0]))
    assert subset.column("id").tolist() == [3, 1]
    masked = table.take(table.column("id") > 1)
    assert masked.num_rows == 2


def test_select_and_rename():
    table = sample_table().select(["id", "name"]).rename({"name": "label"})
    assert table.column_names == ["id", "label"]
    with pytest.raises(TableError):
        sample_table().select(["ghost"])


def test_head():
    assert sample_table().head(2).num_rows == 2
    assert sample_table().head(10).num_rows == 3


def test_concat():
    table = sample_table()
    doubled = table.concat(table)
    assert doubled.num_rows == 6
    with pytest.raises(TableError):
        table.concat(Table("u", {"other": [1]}))


def test_serialization_roundtrip():
    table = sample_table()
    restored = Table.from_bytes(table.to_bytes())
    assert restored.name == "t"
    assert restored.num_rows == 3
    assert restored.column("id").tolist() == [1, 2, 3]
    assert list(restored.column("name")) == ["a", "b", "c"]
    assert restored.column("score").tolist() == [1.5, 2.5, 3.5]


def test_serialization_empty_table():
    table = Table("empty", {"a": []})
    restored = Table.from_bytes(table.to_bytes())
    assert restored.num_rows == 0
    assert restored.column_names == ["a"]


def test_deserialize_garbage_rejected():
    with pytest.raises(TableError):
        Table.from_bytes(b"definitely not a table")
    blob = sample_table().to_bytes()
    with pytest.raises(TableError):
        Table.from_bytes(blob[: len(blob) - 10])


def test_unicode_strings_roundtrip():
    table = Table("t", {"s": ["héllo", "wörld", "日本"]})
    restored = Table.from_bytes(table.to_bytes())
    assert list(restored.column("s")) == ["héllo", "wörld", "日本"]


@pytest.mark.parametrize(
    "strings",
    [
        ["", "a", "", "bc", ""],  # empty strings share offsets
        ["", "é", "", "日本"],  # non-ASCII: decoded slice by slice at parse
        [""],
    ],
)
def test_string_column_roundtrip_edge_cases(strings):
    restored = Table.from_bytes(Table("t", {"s": strings}).to_bytes())
    assert restored.column("s").dtype == object
    assert list(restored.column("s")) == strings
    assert restored.to_bytes() == Table("t", {"s": strings}).to_bytes()


def test_zero_row_string_column_roundtrip():
    table = Table("t", {"s": np.asarray([], dtype=object), "i": np.asarray([], dtype=np.int32)})
    restored = Table.from_bytes(table.to_bytes())
    assert restored.num_rows == 0
    assert restored.column("s").dtype == object
    assert restored.column("i").dtype == np.int32
    assert restored.to_bytes() == table.to_bytes()


def test_undecoded_string_column_survives_row_and_column_operations():
    table = Table("t", {"id": [1, 2, 3, 4], "s": ["a", "", "ccc", "dd"]})
    parsed = Table.from_bytes(table.to_bytes())
    derived = (
        parsed.take(np.array([3, 0, 2])).take(np.array([True, False, True]))
        .select(["s", "id"]).rename({"s": "label"}).with_name("u")
    )
    assert derived.name == "u"
    assert list(derived.column("label")) == ["dd", "ccc"]
    assert derived.column("id").tolist() == [4, 3]
    # The source column is untouched by what was read downstream.
    assert list(parsed.column("s")) == ["a", "", "ccc", "dd"]
    assert list(parsed.head(2).column("s")) == ["a", ""]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-(2**40), 2**40), min_size=0, max_size=50),
    st.lists(st.text(max_size=12), min_size=0, max_size=50),
)
def test_property_roundtrip_mixed_columns(ints, strings):
    length = min(len(ints), len(strings))
    table = Table("t", {"i": ints[:length], "s": strings[:length]})
    restored = Table.from_bytes(table.to_bytes())
    assert restored.column("i").tolist() == ints[:length]
    assert list(restored.column("s")) == strings[:length]
