"""Re-encoding lazy set views reproduces their source bytes (store-back path)."""

from repro.data.context import MemoryContext, serialize_sets, serialized_size
from repro.data.items import DataItem, DataSet
from repro.data.lazy import LazyDataSet, parse_sets_lazy


def sample_sets():
    return [
        DataSet("request", [DataItem("body", b"p" * 300, key="k0"), DataItem("hdr", b"h" * 40)]),
        DataSet("config", [DataItem(f"opt{i}", bytes([i]) * (i + 1)) for i in range(6)]),
    ]


def test_passthrough_is_byte_identical():
    blob = serialize_sets(sample_sets())
    assert serialize_sets(parse_sets_lazy(blob)) == blob


def test_passthrough_after_ident_touch_still_splices():
    blob = serialize_sets(sample_sets())
    views = parse_sets_lazy(blob)
    for view in views:
        view.ident  # decode (but do not change) the name
    assert serialize_sets(views) == blob


def test_renamed_view_reencodes_correctly():
    blob = serialize_sets(sample_sets())
    renamed = parse_sets_lazy(blob)[0].renamed("response")
    reencoded = parse_sets_lazy(serialize_sets([renamed]))
    assert reencoded[0].ident == "response"
    assert reencoded[0].item("body").data == b"p" * 300
    assert reencoded[0].item("body").key == "k0"


def test_mixed_lazy_and_eager_sets():
    blob = serialize_sets(sample_sets())
    views = parse_sets_lazy(blob)
    mixed = [views[1], DataSet("fresh", [DataItem("x", b"z" * 9)]), views[0]]
    out = parse_sets_lazy(serialize_sets(mixed))
    assert [s.ident for s in out] == ["config", "fresh", "request"]
    assert out[2].item("hdr").data == b"h" * 40
    assert out[0].item("opt5").data == bytes([5]) * 6
    assert out[1].item("x").data == b"z" * 9


def test_serialized_size_matches_spliced_encoding():
    blob = serialize_sets(sample_sets())
    views = parse_sets_lazy(blob)
    assert serialized_size(views) == len(serialize_sets(views))


def test_context_store_back_loaded_sets():
    # The dispatcher pattern: sets indexed lazily out of one blob are
    # stored into a context untouched; the charge is the blob's size.
    blob = serialize_sets(sample_sets())
    destination = MemoryContext(capacity=1 << 16)
    assert destination.store_sets(parse_sets_lazy(blob)) == len(blob)


def test_lazy_views_from_memoryview_blob_splice():
    blob = serialize_sets(sample_sets())
    views = parse_sets_lazy(memoryview(blob))
    assert serialize_sets(views) == blob
