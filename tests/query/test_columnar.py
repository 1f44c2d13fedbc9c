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
    table = Table("t", {"x": [1, 2], "y": ["p", "q"]})
    assert table.to_rows() == rows


def test_ints_mixed_with_floats_become_float64():
    column = Table("t", {"x": [1, 2.5]}).column("x")
    assert column.dtype == np.float64 and column.tolist() == [1.0, 2.5]
    # Bools stay as they were: int64.
    assert Table("t", {"b": [True, False]}).column("b").tolist() == [1, 0]


@pytest.mark.parametrize("values", [["a", 1], [1, "a"], [None, "a"], [2.5, "a"]])
def test_str_mixed_with_other_values_rejected(values):
    with pytest.raises(TableError, match="mixes str"):
        Table("t", {"x": values})


@pytest.mark.parametrize("values", [[2**63], [1, 2**64], [-1, 2**63], [np.uint64(2**63)], [1, None]])
def test_ints_outside_int64_rejected(values):
    with pytest.raises(TableError, match="int64"):
        Table("t", {"x": values})


@pytest.mark.parametrize("values", [np.zeros((2, 2)), np.asarray(5), [[1, 2], [3, 4]], [[1], [2]], [1, [2]]])
def test_columns_that_are_not_one_dimensional_rejected(values):
    with pytest.raises(TableError, match="one-dimensional"):
        Table("t", {"x": values})


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
    tripled = table.concat(table.select(["score", "name", "id"]), table)
    assert tripled.column_names == table.column_names
    assert tripled.to_rows() == table.to_rows() * 3
    assert tripled.to_bytes() == doubled.concat(table).to_bytes()
    with pytest.raises(TableError):
        table.concat(table, Table("u", {"other": [1]}))


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


def shared_sample():
    """Numbers, ASCII strings (decoded lazily) and non-ASCII ones (at parse)."""
    return Table("t", {"id": [1, 2], "score": [0.5, 1.5], "ascii": ["a", "b"], "text": ["é", "日本"]})


def test_tables_parsed_from_bytes_reject_in_place_writes():
    # Sibling instances may share one parsed table: a write must raise
    # rather than change what the others read.
    parsed = Table.from_bytes(shared_sample().to_bytes())
    for name in ("id", "score", "ascii", "text"):
        with pytest.raises(ValueError, match="read-only"):
            parsed.column(name)[0] = parsed.column(name)[1]
    assert parsed.to_rows() == shared_sample().to_rows()


def test_tables_parsed_from_a_reusable_buffer_copy_it():
    original = shared_sample().to_bytes()
    blob = bytearray(original)
    for source in (blob, memoryview(blob)):
        parsed = Table.from_bytes(source)
        blob[:] = bytes(len(blob))
        assert parsed.to_rows() == shared_sample().to_rows()
        blob[:] = original


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


def per_item_string_column(array) -> list:
    """The string buffers as the encoder wrote them one item at a time."""
    encoded = [str(v).encode("utf-8") for v in array]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(e) for e in encoded], out=offsets[1:])
    return [offsets.tobytes(), b"".join(encoded)]


def buffers(blob: bytes) -> list:
    """The length-prefixed buffers after a blob's header."""
    position, found = 8 + int.from_bytes(blob[4:8], "little"), []
    while position < len(blob):
        length = int.from_bytes(blob[position:position + 8], "little")
        found.append(blob[position + 8:position + 8 + length])
        position += 8 + length
    return found


OBJECTS = st.one_of(
    st.integers(), st.floats(), st.booleans(), st.none(), st.just(np.True_),
    st.builds(np.str_, st.text(max_size=4)), st.tuples(st.integers()),
)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.text(alphabet=st.characters(max_codepoint=127), max_size=6), max_size=20),  # ASCII
    st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=6), max_size=20),  # any text
    st.lists(st.one_of(st.text(max_size=3).filter(str.isascii), OBJECTS), max_size=20),  # not all str
))
def test_string_column_bytes_equal_the_per_item_encoder(values):
    array = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):  # tuples stay items
        array[index] = value
    blob = Table._of("t", {"s": array}, len(array)).to_bytes()
    assert buffers(blob) == per_item_string_column(array)
