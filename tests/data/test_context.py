"""Unit and property tests for MemoryContext and the set wire format."""

import gc
import struct
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    PAGE_SIZE,
    ContextError,
    DataItem,
    DataSet,
    MemoryContext,
    parse_sets,
    parse_sets_lazy,
    serialize_sets,
    serialized_size,
)
from repro.data.items import register_item_type

from .corpus import V1_BLOB, _base_sets


def _sample_sets():
    return [
        DataSet("alpha", [DataItem("x", b"123", key="k"), DataItem("y", b"")]),
        DataSet("beta", []),
        DataSet("gamma", [DataItem("z", bytes(range(256)))]),
    ]


def _small_sets():
    """Sets whose wire size is far below one page."""
    return [DataSet("s", [DataItem("i", b"x")])]


def test_capacity_enforced_on_write():
    # A store must fit between its offset and the capacity.
    size = serialized_size(_small_sets())
    ctx = MemoryContext(size + 10)
    with pytest.raises(ContextError):
        ctx.store_sets(_small_sets(), offset=11)
    assert ctx.committed == 0
    assert ctx.store_sets(_small_sets(), offset=10) == size


def test_negative_offset_rejected():
    ctx = MemoryContext(1 << 16)
    with pytest.raises(ContextError):
        ctx.store_sets(_small_sets(), offset=-1)


def test_invalid_capacity_rejected():
    with pytest.raises(ContextError):
        MemoryContext(0)


def test_committed_grows_with_pages():
    ctx = MemoryContext(10 * PAGE_SIZE)
    assert ctx.committed == 0
    ctx.store_sets(_small_sets())
    assert ctx.committed == PAGE_SIZE
    ctx.store_sets(_small_sets(), offset=PAGE_SIZE + 1)
    assert ctx.committed == 2 * PAGE_SIZE


def test_committed_never_exceeds_reserved_pages():
    capacity = 3 * PAGE_SIZE
    ctx = MemoryContext(capacity)
    ctx.store_sets(_small_sets(), offset=capacity - serialized_size(_small_sets()))
    assert ctx.committed == capacity


def test_free_releases_and_blocks_access():
    ctx = MemoryContext(PAGE_SIZE)
    ctx.store_sets(_small_sets())
    ctx.free()
    assert ctx.freed
    assert ctx.committed == 0
    with pytest.raises(ContextError):
        ctx.store_sets(_small_sets())


class _WeakrefableSet(DataSet):
    """A data set that can be weakly referenced."""


def test_stored_sets_are_not_kept_alive():
    # A context accounts a store; it must not hold the stored sets.
    ctx = MemoryContext(1 << 16)
    item = DataItem("x", b"payload")
    data_set = _WeakrefableSet("s", [item])
    set_ref, item_ref = weakref.ref(data_set), weakref.ref(item)
    ctx.store_sets([data_set])
    del data_set, item
    gc.collect()
    assert set_ref() is None and item_ref() is None
    assert ctx.committed == PAGE_SIZE


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1 << 16), st.integers(0, 1 << 16))
def test_property_store_commits_whole_pages_within_capacity(capacity, offset):
    ctx = MemoryContext(capacity)
    size = serialized_size(_small_sets())
    if offset + size > capacity:
        with pytest.raises(ContextError):
            ctx.store_sets(_small_sets(), offset=offset)
        assert ctx.committed == 0
    else:
        assert ctx.store_sets(_small_sets(), offset=offset) == size
        pages = (offset + size + PAGE_SIZE - 1) // PAGE_SIZE
        assert ctx.committed == pages * PAGE_SIZE
        assert ctx.committed <= ((capacity + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE


def test_parser_rejects_bad_magic():
    with pytest.raises(ContextError):
        parse_sets(b"XXXX" + b"\x00" * 16)


def test_parser_rejects_truncated_blob():
    blob = serialize_sets(_sample_sets())
    with pytest.raises(ContextError):
        parse_sets(blob[: len(blob) // 2])


def test_parser_rejects_huge_set_count():
    blob = serialize_sets(_sample_sets())
    blob = blob[:4] + struct.pack("<I", 1 << 30) + blob[8:]
    with pytest.raises(ContextError, match="set count"):
        parse_sets(blob)


def test_parser_rejects_empty_set_name():
    blob = serialize_sets([DataSet("s", [])])
    blob = blob[:16] + struct.pack("<I", 0) + blob[20:]
    with pytest.raises(ContextError, match="empty name"):
        parse_sets(blob)


def test_parser_rejects_invalid_utf8_name():
    blob = serialize_sets([DataSet("s", [])])
    blob = blob[:20] + b"\xff" + blob[21:]
    with pytest.raises(ContextError, match="UTF-8"):
        parse_sets(blob)


_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=12
)


@st.composite
def _sets_strategy(draw):
    count = draw(st.integers(0, 4))
    sets = []
    used_set_names = set()
    for _ in range(count):
        name = draw(_names.filter(lambda n: n not in used_set_names))
        used_set_names.add(name)
        items = []
        used = set()
        for _ in range(draw(st.integers(0, 4))):
            ident = draw(_names.filter(lambda n: n not in used))
            used.add(ident)
            data = draw(st.binary(max_size=64))
            key = draw(st.one_of(st.none(), _names))
            items.append(DataItem(ident, data, key=key))
        sets.append(DataSet(name, items))
    return sets


@settings(max_examples=120, deadline=None)
@given(_sets_strategy())
def test_property_serialize_parse_roundtrip(sets):
    loaded = parse_sets(serialize_sets(sets))
    assert len(loaded) == len(sets)
    for original, parsed in zip(sets, loaded):
        assert parsed.ident == original.ident
        assert len(parsed) == len(original)
        for item_in, item_out in zip(original, parsed):
            assert item_out.ident == item_in.ident
            assert item_out.data == item_in.data
            assert item_out.key == item_in.key


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=256))
def test_property_parser_never_crashes_on_garbage(blob):
    # Strictness property: arbitrary bytes either parse or raise
    # ContextError — never any other exception, never a hang.
    try:
        parse_sets(blob)
    except ContextError:
        pass


_unicode_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FFF),
    min_size=1,
    max_size=24,
).filter(lambda n: len(n.encode("utf-8")) <= 4096)


@st.composite
def _sets_any_names(draw):
    """Sets with non-ASCII names, empty sets, empty payloads."""
    sets = []
    for _ in range(draw(st.integers(0, 4))):
        items = []
        used = set()
        for _ in range(draw(st.integers(0, 4))):
            ident = draw(_unicode_names.filter(lambda n: n not in used))
            used.add(ident)
            items.append(
                DataItem(
                    ident,
                    draw(st.binary(max_size=128)),
                    key=draw(st.one_of(st.none(), _unicode_names)),
                )
            )
        sets.append(DataSet(draw(_unicode_names), items))
    return sets


@settings(max_examples=150, deadline=None)
@given(_sets_any_names())
def test_property_serialized_size_matches_encoder(sets):
    # The accounting half of the data plane must agree byte-for-byte
    # with the eager encoder, including empty sets and non-ASCII names.
    assert serialized_size(sets) == len(serialize_sets(sets))
    # A second call hits the per-set wire cache; it must not drift.
    assert serialized_size(sets) == len(serialize_sets(sets))


def test_serialized_size_empty():
    assert serialized_size([]) == len(serialize_sets([]))


def test_serialized_size_max_length_name():
    name = "n" * 4096
    sets = [DataSet(name, [DataItem(name, b"x", key=name)])]
    assert serialized_size(sets) == len(serialize_sets(sets))


def test_serialized_size_rejects_overlong_name_like_encoder():
    sets = [DataSet("s", [DataItem("i" * 4097, b"")])]
    with pytest.raises(ContextError):
        serialize_sets(sets)
    with pytest.raises(ContextError):
        serialized_size(sets)


class _SizedOnlyItem:
    """An item whose payload length is known but whose bytes are not:
    reading ``.data`` fails the test."""

    def __init__(self, ident, size, key=None):
        self.ident = ident
        self.key = key
        self.size = size

    @property
    def data(self):
        raise AssertionError("serialized_size read .data")


register_item_type(_SizedOnlyItem)


@settings(max_examples=100, deadline=None)
@given(_sets_any_names())
def test_property_serialized_size_takes_payload_length_from_size(sets):
    # The accounting never builds a payload (an envelope's bytes are
    # built on first .data): it must match the eager encoder while
    # every item's .data raises.
    sized_only = [
        DataSet(
            data_set.ident,
            [_SizedOnlyItem(item.ident, item.size, item.key) for item in data_set],
        )
        for data_set in sets
    ]
    assert serialized_size(sized_only) == len(serialize_sets(sets))


def test_serialized_size_name_check_without_data():
    sets = [DataSet("s", [_SizedOnlyItem("i", 3, key="k" * 4097)])]
    with pytest.raises(ContextError):
        serialized_size(sets)


def test_serialized_size_cache_invalidated_by_add():
    data_set = DataSet("s", [DataItem("a", b"123")])
    first = serialized_size([data_set])
    data_set.add(DataItem("b", b"4567"))
    assert serialized_size([data_set]) == len(serialize_sets([data_set])) > first


def test_store_sets_is_lazy_until_read():
    # Accounting only: the charge is the exact wire size, in pages.
    ctx = MemoryContext(1 << 16)
    sets = _sample_sets()
    size = ctx.store_sets(sets)
    assert size == len(serialize_sets(sets))
    assert ctx.committed == ((size + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE


def test_store_sets_overflow_fails_without_materializing():
    ctx = MemoryContext(16)
    with pytest.raises(ContextError):
        ctx.store_sets(_sample_sets())
    assert ctx.committed == 0


def test_wire_version_default_is_v2():
    blob = serialize_sets(_sample_sets())
    assert blob[:4] == b"DND2"


def test_v1_blob_still_parses():
    # The name predates the removal of the scan-only v1 reader.  A v1
    # blob still goes through parse_sets, which now rejects its magic up
    # front; test_lazy.py checks the same for parse_sets_lazy.
    assert V1_BLOB[:4] == b"DNDL"
    with pytest.raises(ContextError, match="bad magic"):
        parse_sets(V1_BLOB)


def test_writers_take_no_version():
    with pytest.raises(TypeError):
        serialize_sets(_sample_sets(), version=1)
    with pytest.raises(TypeError):
        serialized_size(_sample_sets(), version=1)


def test_v2_costs_exactly_the_footer_over_v1():
    sets = _base_sets()
    assert serialized_size(sets) == len(serialize_sets(sets))
    # 8 bytes of extra header, 28 per set, 8 per item.
    items = sum(len(s) for s in sets)
    assert serialized_size(sets) - len(V1_BLOB) == 8 + 28 * len(sets) + 8 * items


def test_strict_parse_rejects_tampered_footer():
    blob = bytearray(serialize_sets(_sample_sets()))
    _, set_count, footer_offset = struct.unpack_from("<4sIQ", blob, 0)
    # Point the first set entry's offset one byte off: the footer no
    # longer agrees with the body scan.
    set_offset = struct.unpack_from("<Q", blob, footer_offset)[0]
    struct.pack_into("<Q", blob, footer_offset, set_offset + 1)
    with pytest.raises(ContextError):
        parse_sets(bytes(blob))


def test_strict_parse_rejects_body_not_ending_at_footer():
    blob = bytearray(serialize_sets(_sample_sets()))
    # Claim the footer starts one byte later than the body really ends.
    footer_offset = struct.unpack_from("<Q", blob, 8)[0]
    grown = blob[: footer_offset] + b"\x00" + blob[footer_offset:]
    struct.pack_into("<Q", grown, 8, footer_offset + 1)
    with pytest.raises(ContextError):
        parse_sets(bytes(grown))
