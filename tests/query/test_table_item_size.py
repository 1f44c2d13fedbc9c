"""``TableItem.size`` is the exact length of the table's bytes.

The size of a table item is what the data plane accounts for a partial
or result table that is never written out, so it must equal
``len(table.to_bytes())`` byte for byte: for tables built by the public
constructor, and for tables parsed from bytes (ASCII string columns
still undecoded, non-ASCII ones decoded), gathered by ``take``, with no
rows or no columns, non-ASCII names and strings, strings ending in NUL,
object columns that hold no ``str`` and every numeric kind.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import DataSet
from repro.query import Table, TableItem

NUMERIC_DTYPES = ["?", "i1", "<i2", ">i4", "<i8", "u1", ">u2", "<u4", "<u8", "<f2", ">f4", "<f8"]
names = st.text(min_size=1, max_size=6)
strings = st.one_of(st.text(max_size=5), st.text(max_size=4).map(lambda text: text + "\x00"))


@st.composite
def columns(draw, rows):
    kind = draw(st.sampled_from(["numeric", "strided", "string", "object"]))
    if kind in ("numeric", "strided"):
        dtype = np.dtype(draw(st.sampled_from(NUMERIC_DTYPES)))
        step = 2 if kind == "strided" else 1
        size = rows * step * dtype.itemsize
        raw = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), "u1")
        return (raw.astype(bool) if dtype.kind == "b" else raw.view(dtype))[::step]
    if kind == "string":
        return draw(st.lists(strings, min_size=rows, max_size=rows))
    objects = np.empty(rows, dtype=object)
    values = st.one_of(st.none(), st.integers(), st.tuples(st.integers()))
    objects[:] = draw(st.lists(values, min_size=rows, max_size=rows))
    return objects


@st.composite
def tables(draw):
    rows = draw(st.integers(0, 6))
    column_names = draw(st.lists(names, max_size=4, unique=True))
    table = Table(draw(names), {name: draw(columns(rows)) for name in column_names})
    form = draw(st.sampled_from(["public", "parsed", "taken"]))
    if form == "public":
        return table
    parsed = Table.from_bytes(table.to_bytes())
    if form == "parsed":
        return parsed
    indices = draw(st.lists(st.integers(0, rows - 1), max_size=8)) if rows else []
    return parsed.take(np.asarray(indices, dtype=np.int64))


@settings(max_examples=300, deadline=None)
@given(tables())
@example(Table("t", {}))
@example(Table("é", {"ß": ["日本", "\x00", "a\x00"], "n": np.arange(3, dtype="<u8")}))
def test_size_is_the_length_of_the_bytes(table):
    blob = table.to_bytes()
    item = TableItem("agg", table)
    assert item.size == len(blob)
    assert item.data == blob
    assert DataSet("partials", [item]).size == len(blob)
    assert Table.from_bytes(item.data).to_bytes() == blob


def test_item_holds_the_table_by_reference_read_only():
    table = Table("t", {"n": [1, 2, 3], "s": ["a", "b", "c"]})
    item = TableItem("agg", table, key="k")
    assert item.table is table and item.key == "k" and item._data is None
    with pytest.raises(ValueError, match="read-only"):
        table.column("n")[0] = 7
