"""``sort_rows`` orders rows as Python's stable ``sorted`` does.

Several keys, the first primary; ties keep input order; descending is the
reversed stable ascending sort.  Strings compare as Python compares them,
so a trailing NUL sorts after the same string without it, and non-ASCII
text sorts by code point.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.query import Table, sort_rows

from .test_kernel_equivalence import parsed

STRINGS = ["", "\x00", "a", "a\x00", "a\x00\x00", "ab", "b", "é", "日本", "日本\x00"]


@st.composite
def sorts(draw):
    """A table of int and str key columns plus its row numbers, and the
    keys to sort it by."""
    rows = draw(st.integers(0, 25))
    kinds = draw(st.lists(st.sampled_from(["int", "str"]), min_size=1, max_size=3))
    columns = {}
    for index, kind in enumerate(kinds):
        values = st.integers(-3, 3) if kind == "int" else st.sampled_from(STRINGS)
        drawn = draw(st.lists(values, min_size=rows, max_size=rows))
        columns[f"k{index}"] = np.asarray(drawn, dtype=np.int64 if kind == "int" else object)
    columns["row"] = np.arange(rows)
    by = draw(st.permutations(list(columns)[:-1]))
    return Table("t", columns), by[:draw(st.integers(1, len(by)))]


def python_order(table: Table, by: list, ascending: bool) -> list:
    keys = [table.column(name).tolist() for name in by]
    order = sorted(range(table.num_rows), key=lambda row: tuple(key[row] for key in keys))
    return order if ascending else order[::-1]


@settings(max_examples=300, deadline=None)
@given(case=sorts(), ascending=st.booleans(), wire=st.booleans())
@example(
    case=(Table("t", {"k0": np.asarray(["a\x00", "a", "\x00", ""], dtype=object), "row": np.arange(4)}), ["k0"]),
    ascending=True, wire=False,
)
def test_sort_rows_matches_python_sorted(case, ascending, wire):
    table, by = case
    if wire:
        table = parsed(table)
    result = sort_rows(table, by, ascending=ascending)
    assert result.column("row").tolist() == python_order(table, by, ascending)
    for name in table.column_names:
        assert result.column(name).dtype == table.column(name).dtype
