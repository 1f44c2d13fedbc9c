"""Lazy wire-format views: equivalence, strictness parity, laziness."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ContextError,
    DataItem,
    DataSet,
    LazyDataItem,
    LazyDataSet,
    MemoryContext,
    parse_sets,
    parse_sets_lazy,
    serialize_sets,
    serialized_size,
)
from .corpus import CORPUS, V1_BLOB, touch_all, verify_corpus_rejections


def _sample_sets():
    return [
        DataSet("alpha", [DataItem("x", b"123", key="k"), DataItem("y", b"")]),
        DataSet("beta", []),
        DataSet("gamma", [DataItem("z", bytes(range(256)))]),
    ]


def _assert_equivalent(lazy_sets, strict_sets):
    assert len(lazy_sets) == len(strict_sets)
    for lazy, strict in zip(lazy_sets, strict_sets):
        assert lazy.ident == strict.ident
        assert len(lazy) == len(strict)
        assert lazy.size == strict.size
        assert lazy.keys() == strict.keys()
        for item_lazy, item_strict in zip(lazy, strict):
            assert item_lazy.ident == item_strict.ident
            assert item_lazy.key == item_strict.key
            assert item_lazy.size == item_strict.size
            assert item_lazy.data == item_strict.data


# -- equivalence with the strict codec ----------------------------------------


def test_lazy_matches_strict_on_sample():
    blob = serialize_sets(_sample_sets())
    _assert_equivalent(parse_sets_lazy(blob), parse_sets(blob))


_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FFF),
    min_size=1,
    max_size=16,
).filter(lambda n: len(n.encode("utf-8")) <= 4096)


@st.composite
def _sets_strategy(draw):
    sets = []
    used_set_names = set()
    for _ in range(draw(st.integers(0, 4))):
        name = draw(_names.filter(lambda n: n not in used_set_names))
        used_set_names.add(name)
        items = []
        used = set()
        for _ in range(draw(st.integers(0, 5))):
            ident = draw(_names.filter(lambda n: n not in used))
            used.add(ident)
            items.append(
                DataItem(
                    ident,
                    draw(st.binary(max_size=96)),
                    key=draw(st.one_of(st.none(), _names)),
                )
            )
        sets.append(DataSet(name, items))
    return sets


@settings(max_examples=120, deadline=None)
@given(_sets_strategy())
def test_property_lazy_equivalent_to_strict(sets):
    blob = serialize_sets(sets)
    _assert_equivalent(parse_sets_lazy(blob), parse_sets(blob))


@settings(max_examples=120, deadline=None)
@given(_sets_strategy())
def test_property_lazy_restore_accounting_is_exact(sets):
    # Re-storing lazy views must charge exactly what re-encoding them
    # produces — the O(1) footer-carried wire size cannot drift.
    blob = serialize_sets(sets)
    lazy = parse_sets_lazy(blob)
    assert serialized_size(lazy) == len(serialize_sets(lazy)) == len(blob)


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=256))
def test_property_lazy_never_crashes_on_garbage(blob):
    # Same strictness property as the eager parser: arbitrary bytes
    # either index+touch cleanly or raise ContextError — nothing else.
    try:
        touch_all(parse_sets_lazy(blob))
    except ContextError:
        pass


# -- malformed-blob corpus parity ---------------------------------------------


def test_corpus_parity():
    assert verify_corpus_rejections() == []


@pytest.mark.parametrize("entry", CORPUS, ids=[entry.name for entry in CORPUS])
def test_corpus_entry_rejected_by_both_codecs(entry):
    with pytest.raises(ContextError):
        parse_sets(entry.blob)
    if entry.lazy_stage == "index":
        with pytest.raises(ContextError):
            parse_sets_lazy(entry.blob)
    else:
        sets = parse_sets_lazy(entry.blob)  # indexing succeeds...
        with pytest.raises(ContextError):
            touch_all(sets)  # ...the poisoned record raises on touch


# -- laziness -----------------------------------------------------------------


def test_index_is_zero_touch():
    blob = serialize_sets(_sample_sets())
    lazy = parse_sets_lazy(blob)
    for view in lazy:
        # Routing-level operations never allocate per-item state.
        view.size, len(view), view.renamed("elsewhere")
        assert view._body.entries is None
    # serialized_size (re-store accounting) only decodes the set name.
    serialized_size(lazy)
    assert all(view._body.entries is None for view in lazy)


def test_payload_copied_once_on_first_data_access():
    blob = serialize_sets(_sample_sets())
    item = parse_sets_lazy(blob)[0].item("x")
    assert item._data is None  # header decoded, payload untouched
    first = item.data
    assert item._data is first and item._blob is None  # cached, alias dropped
    assert item.data is first  # second read returns the same object


def test_renamed_views_share_material():
    blob = serialize_sets(_sample_sets())
    original = parse_sets_lazy(blob)[0]
    alias = original.renamed("other")
    assert alias.ident == "other" and original.ident == "alpha"
    assert alias.renamed("alpha") is not original  # distinct view objects
    materialized = alias.item("x").data
    assert original.item("x").data is materialized  # shared entry cache


def test_dataset_renamed_dispatches_to_lazy():
    blob = serialize_sets(_sample_sets())
    lazy = parse_sets_lazy(blob)[0]
    renamed = DataSet.renamed(lazy, "routed")
    assert isinstance(renamed, LazyDataSet)
    assert renamed.ident == "routed"
    assert DataSet.renamed(lazy, "alpha") is lazy


def test_lazy_set_surface():
    blob = serialize_sets(_sample_sets())
    view = parse_sets_lazy(blob)[0]
    assert [item.ident for item in view] == ["x", "y"]
    assert view[0].ident == "x" and view[-1].ident == "y"
    assert [item.ident for item in view[0:2]] == ["x", "y"]
    with pytest.raises(IndexError):
        view[2]
    assert "x" in view and "missing" not in view
    with pytest.raises(KeyError):
        view.item("missing")
    assert view.items[0].data == b"123"
    assert "LazyDataSet" in repr(view) and "LazyDataItem" in repr(view[0])
    assert view[0].text() == "123"


def test_lazy_set_is_read_only():
    blob = serialize_sets(_sample_sets())
    view = parse_sets_lazy(blob)[0]
    with pytest.raises(TypeError):
        view.add(DataItem("new", b""))


def test_grouped_by_key_keeps_items_lazy():
    sets = [
        DataSet(
            "s",
            [DataItem(f"i{n}", b"payload", key=f"k{n % 3}") for n in range(9)],
        )
    ]
    view = parse_sets_lazy(serialize_sets(sets))[0]
    groups = view.grouped_by_key()
    assert [group.keys() for group in groups] == [["k0"], ["k1"], ["k2"]]
    for group in groups:
        assert isinstance(group, DataSet)
        for item in group:
            assert isinstance(item, LazyDataItem)
            assert item._data is None  # grouping never copied payloads


def test_eager_set_accepts_lazy_items():
    blob = serialize_sets(_sample_sets())
    view = parse_sets_lazy(blob)[0]
    mixed = DataSet("mixed", list(view) + [DataItem("extra", b"zz")])
    assert [item.ident for item in mixed] == ["x", "y", "extra"]
    assert serialized_size([mixed]) == len(serialize_sets([mixed]))


def test_duplicate_lazy_item_names_rejected_on_lookup():
    import struct

    blob = bytearray(serialize_sets([DataSet("s", [DataItem("a", b"1"), DataItem("b", b"2")])]))
    footer_end = struct.unpack_from("<Q", blob, 8)[0] + 28
    offsets = struct.unpack_from("<2Q", blob, footer_end)
    # Rewrite item 'b''s name record to 'a' (same length).
    blob[offsets[1] + 4 : offsets[1] + 5] = b"a"
    view = parse_sets_lazy(bytes(blob))[0]
    with pytest.raises(ContextError):
        view.item("a")


def test_v1_blob_falls_back_to_eager():
    sets = parse_sets_lazy(V1_BLOB)
    assert all(isinstance(s, DataSet) for s in sets)
    _assert_equivalent(sets, parse_sets(V1_BLOB))


# -- context integration ------------------------------------------------------


def test_load_sets_returns_lazy_views():
    ctx = MemoryContext(1 << 16)
    ctx.store_sets(_sample_sets())
    loaded = ctx.load_sets()
    assert all(isinstance(s, LazyDataSet) for s in loaded)
    _assert_equivalent(loaded, parse_sets(serialize_sets(_sample_sets())))


def test_load_sets_roundtrips_through_restore():
    # load -> store into a second context -> load again, all lazy.
    ctx = MemoryContext(1 << 16)
    ctx.store_sets(_sample_sets())
    loaded = ctx.load_sets()
    other = MemoryContext(1 << 16)
    size = other.store_sets(loaded)
    assert size == serialized_size(_sample_sets())
    _assert_equivalent(other.load_sets(), _sample_sets())
