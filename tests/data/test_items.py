"""Unit tests for DataItem and DataSet."""

import pytest

from repro.data import DataItem, DataSet, group_items_by_key, total_size


def test_item_holds_bytes():
    item = DataItem("a", b"hello")
    assert item.data == b"hello"
    assert item.size == 5
    assert item.key is None


def test_item_accepts_bytearray_and_freezes():
    source = bytearray(b"xy")
    item = DataItem("a", source)
    source[0] = 0
    assert item.data == b"xy"


def test_item_rejects_str_payload():
    with pytest.raises(TypeError):
        DataItem("a", "not bytes")


def test_item_rejects_empty_ident():
    with pytest.raises(ValueError):
        DataItem("", b"")


def test_item_text_decodes():
    assert DataItem("a", "héllo".encode()).text() == "héllo"


def test_item_is_immutable():
    item = DataItem("a", b"x")
    with pytest.raises(AttributeError):
        item.data = b"y"


def test_set_ordering_preserved():
    data_set = DataSet("s", [DataItem("b", b"1"), DataItem("a", b"2")])
    assert [i.ident for i in data_set] == ["b", "a"]
    assert data_set[0].ident == "b"


def test_set_duplicate_item_rejected():
    data_set = DataSet("s", [DataItem("a", b"")])
    with pytest.raises(ValueError):
        data_set.add(DataItem("a", b""))


def test_set_rejects_non_item():
    data_set = DataSet("s")
    with pytest.raises(TypeError):
        data_set.add(b"raw")


def test_set_empty_ident_rejected():
    with pytest.raises(ValueError):
        DataSet("")


def test_set_lookup_by_ident():
    data_set = DataSet("s", [DataItem("a", b"1"), DataItem("b", b"2")])
    assert data_set.item("b").data == b"2"
    with pytest.raises(KeyError):
        data_set.item("c")


def test_set_size_sums_items():
    data_set = DataSet("s", [DataItem("a", b"12"), DataItem("b", b"345")])
    assert data_set.size == 5
    assert len(data_set) == 2
    # The total is kept as items are added; a rejected item adds nothing,
    # and a renamed copy carries the total but not later additions.
    with pytest.raises(ValueError):
        data_set.add(DataItem("a", b"9"))
    alias = DataSet.renamed(data_set, "t")
    data_set.add(DataItem("c", b"6789"))
    assert (data_set.size, alias.size) == (9, 5)
    alias.add(DataItem("d", b"0"))
    assert (data_set.size, alias.size) == (9, 6)


def test_set_keys_first_appearance_order():
    data_set = DataSet("s", [
        DataItem("a", b"", key="k2"),
        DataItem("b", b"", key="k1"),
        DataItem("c", b"", key="k2"),
        DataItem("d", b""),
    ])
    groups = group_items_by_key(data_set)
    assert list(groups) == ["k2", "k1", None]
    assert [[item.ident for item in bucket] for bucket in groups.values()] == [["a", "c"], ["b"], ["d"]]


def test_total_size():
    sets = [DataSet("a", [DataItem("i", b"123")]), DataSet("b", [DataItem("j", b"4567")])]
    assert total_size(sets) == 7


def test_group_items_by_key_single_pass_engine():
    items = [
        DataItem("a", b"", key="x"),
        DataItem("b", b""),
        DataItem("c", b"", key="x"),
        DataItem("d", b"", key="y"),
    ]
    groups = group_items_by_key(items)
    assert list(groups) == ["x", None, "y"]
    assert [i.ident for i in groups["x"]] == ["a", "c"]
    assert [i.ident for i in groups[None]] == ["b"]
    assert [i.ident for i in groups["y"]] == ["d"]
