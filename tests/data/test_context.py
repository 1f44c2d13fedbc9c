"""Unit and property tests for MemoryContext and the set wire format."""

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
    serialize_sets,
    serialized_size,
)
from .corpus import V1_BLOB, _base_sets


def test_write_then_read_roundtrip():
    ctx = MemoryContext(1024)
    ctx.write(10, b"hello")
    assert ctx.read(10, 5) == b"hello"


def test_unwritten_memory_reads_zero():
    ctx = MemoryContext(64)
    ctx.write(0, b"x")
    assert ctx.read(1, 3) == b"\x00\x00\x00"


def test_capacity_enforced_on_write():
    ctx = MemoryContext(16)
    with pytest.raises(ContextError):
        ctx.write(10, b"0123456789")


def test_capacity_enforced_on_read():
    ctx = MemoryContext(16)
    with pytest.raises(ContextError):
        ctx.read(10, 10)


def test_negative_offset_rejected():
    ctx = MemoryContext(16)
    with pytest.raises(ContextError):
        ctx.write(-1, b"x")
    with pytest.raises(ContextError):
        ctx.read(-1, 1)


def test_invalid_capacity_rejected():
    with pytest.raises(ContextError):
        MemoryContext(0)


def test_committed_grows_with_pages():
    ctx = MemoryContext(10 * PAGE_SIZE)
    assert ctx.committed == 0
    ctx.write(0, b"x")
    assert ctx.committed == PAGE_SIZE
    ctx.write(PAGE_SIZE + 1, b"y")
    assert ctx.committed == 2 * PAGE_SIZE


def test_committed_never_exceeds_reserved_pages():
    capacity = 3 * PAGE_SIZE
    ctx = MemoryContext(capacity)
    ctx.write(capacity - 1, b"z")
    assert ctx.committed == capacity


def test_free_releases_and_blocks_access():
    ctx = MemoryContext(64)
    ctx.write(0, b"data")
    ctx.free()
    assert ctx.freed
    assert ctx.committed == 0
    with pytest.raises(ContextError):
        ctx.read(0, 1)
    with pytest.raises(ContextError):
        ctx.write(0, b"x")


def test_transfer_between_contexts():
    src = MemoryContext(64)
    dst = MemoryContext(64)
    src.write(0, b"payload")
    src.transfer_to(dst, src_offset=0, dst_offset=8, length=7)
    assert dst.read(8, 7) == b"payload"


def test_transfer_respects_destination_capacity():
    src = MemoryContext(64)
    dst = MemoryContext(4)
    src.write(0, b"toolong")
    with pytest.raises(ContextError):
        src.transfer_to(dst, 0, 0, 7)


def _sample_sets():
    return [
        DataSet("alpha", [DataItem("x", b"123", key="k"), DataItem("y", b"")]),
        DataSet("beta", []),
        DataSet("gamma", [DataItem("z", bytes(range(256)))]),
    ]


def test_store_and_load_sets_roundtrip():
    ctx = MemoryContext(1 << 16)
    written = ctx.store_sets(_sample_sets())
    assert written > 0
    loaded = ctx.load_sets()
    assert [s.ident for s in loaded] == ["alpha", "beta", "gamma"]
    assert loaded[0].item("x").data == b"123"
    assert loaded[0].item("x").key == "k"
    assert loaded[0].item("y").key is None
    assert len(loaded[1]) == 0
    assert loaded[2].item("z").data == bytes(range(256))


def test_parser_rejects_bad_magic():
    with pytest.raises(ContextError):
        parse_sets(b"XXXX" + b"\x00" * 16)


def test_parser_rejects_truncated_blob():
    blob = serialize_sets(_sample_sets())
    with pytest.raises(ContextError):
        parse_sets(blob[: len(blob) // 2])


def test_parser_rejects_huge_set_count():
    import struct
    blob = struct.pack("<4sI", b"DNDL", 1 << 30)
    with pytest.raises(ContextError):
        parse_sets(blob)


def test_parser_rejects_empty_set_name():
    import struct
    blob = struct.pack("<4sI", b"DNDL", 1) + struct.pack("<I", 0) + struct.pack("<I", 0)
    with pytest.raises(ContextError):
        parse_sets(blob)


def test_parser_rejects_invalid_utf8_name():
    import struct
    blob = (
        struct.pack("<4sI", b"DNDL", 1)
        + struct.pack("<I", 2) + b"\xff\xfe"
        + struct.pack("<I", 0)
    )
    with pytest.raises(ContextError):
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


def test_serialized_size_cache_invalidated_by_add():
    data_set = DataSet("s", [DataItem("a", b"123")])
    first = serialized_size([data_set])
    data_set.add(DataItem("b", b"4567"))
    assert serialized_size([data_set]) == len(serialize_sets([data_set])) > first


def test_store_sets_is_lazy_until_read():
    # Accounting happens immediately; bytes appear only when read.
    ctx = MemoryContext(1 << 16)
    sets = _sample_sets()
    size = ctx.store_sets(sets)
    assert size == len(serialize_sets(sets))
    assert ctx.committed >= size  # pages charged without materializing
    assert len(ctx._buffer) == 0  # nothing copied yet
    loaded = ctx.load_sets()
    assert [s.ident for s in loaded] == ["alpha", "beta", "gamma"]


def test_lazy_store_then_raw_write_keeps_order():
    # A raw write after a lazy store must win over the store's bytes.
    ctx = MemoryContext(1 << 16)
    ctx.store_sets(_sample_sets())
    ctx.write(4, b"\x63")  # clobber one byte of the (lazy) header area
    blob = ctx.read(0, 8)
    assert blob[4] == 0x63


def test_read_view_is_zero_copy_alias():
    ctx = MemoryContext(64)
    ctx.write(0, b"abcdef")
    view = ctx.read_view(1, 3)
    assert isinstance(view, memoryview)
    assert bytes(view) == b"bcd"


def test_store_sets_overflow_fails_without_materializing():
    ctx = MemoryContext(16)
    with pytest.raises(ContextError):
        ctx.store_sets(_sample_sets())
    assert len(ctx._buffer) == 0
    assert ctx.committed == 0


def test_wire_version_default_is_v2():
    from repro.data import WIRE_VERSION

    assert WIRE_VERSION == 2
    blob = serialize_sets(_sample_sets())
    assert blob[:4] == b"DND2"


def test_v1_blob_still_parses():
    assert V1_BLOB[:4] == b"DNDL"
    parsed = parse_sets(V1_BLOB)
    assert [s.ident for s in parsed] == [s.ident for s in _base_sets()]
    assert parsed[0].item("a").data == b"hello"
    assert parsed[0].item("a").key == "k"


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
    import struct

    blob = bytearray(serialize_sets(_sample_sets()))
    _, set_count, footer_offset = struct.unpack_from("<4sIQ", blob, 0)
    # Point the first set entry's offset one byte off: the footer no
    # longer agrees with the body scan.
    set_offset = struct.unpack_from("<Q", blob, footer_offset)[0]
    struct.pack_into("<Q", blob, footer_offset, set_offset + 1)
    with pytest.raises(ContextError):
        parse_sets(bytes(blob))


def test_strict_parse_rejects_body_not_ending_at_footer():
    import struct

    blob = bytearray(serialize_sets(_sample_sets()))
    # Claim the footer starts one byte later than the body really ends.
    footer_offset = struct.unpack_from("<Q", blob, 8)[0]
    grown = blob[: footer_offset] + b"\x00" + blob[footer_offset:]
    struct.pack_into("<Q", grown, 8, footer_offset + 1)
    with pytest.raises(ContextError):
        parse_sets(bytes(grown))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 1 << 16), st.binary(min_size=1, max_size=512))
def test_property_write_read_identity(capacity, data):
    ctx = MemoryContext(capacity)
    if len(data) > capacity:
        with pytest.raises(ContextError):
            ctx.write(0, data)
    else:
        ctx.write(0, data)
        assert ctx.read(0, len(data)) == data
        assert ctx.committed <= ((capacity + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE
