"""Unit tests for the hlibc-style in-memory virtual filesystem."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import DataItem, DataSet, EnvelopeItem, VfsError, VirtualFileSystem
from repro.data import vfs as vfs_module


def make_vfs():
    inputs = [
        DataSet("req", [DataItem("token", b"secret"), DataItem("body", b"hello world")]),
        DataSet("config", [DataItem("mode", b"fast")]),
    ]
    return VirtualFileSystem(inputs, ["resp", "logs"])


def test_read_input_binary():
    vfs = make_vfs()
    with vfs.open("/in/req/token", "rb") as handle:
        assert handle.read() == b"secret"


def test_read_input_text():
    vfs = make_vfs()
    with vfs.open("/in/req/body", "r") as handle:
        assert handle.read() == "hello world"


def test_read_missing_file_raises():
    vfs = make_vfs()
    with pytest.raises(VfsError):
        vfs.read_bytes("/in/req/missing")
    with pytest.raises(VfsError):
        vfs.read_bytes("/in/nope/x")


def test_relative_path_rejected():
    vfs = make_vfs()
    with pytest.raises(VfsError):
        vfs.open("in/req/token", "rb")


def test_path_escape_rejected():
    vfs = make_vfs()
    with pytest.raises(VfsError):
        vfs.read_bytes("/in/../../etc/passwd")


def test_write_to_input_rejected():
    vfs = make_vfs()
    with pytest.raises(VfsError):
        vfs.open("/in/req/token", "wb")


def test_write_to_undeclared_output_set_rejected():
    vfs = make_vfs()
    with pytest.raises(VfsError):
        vfs.open("/out/unknown/file", "wb")


def test_write_and_collect_outputs():
    vfs = make_vfs()
    with vfs.open("/out/resp/result", "wb") as handle:
        handle.write(b"answer")
    vfs.write_text("/out/logs/log1", "line", key="shard0")
    outputs = vfs.collect_outputs()
    by_name = {s.ident: s for s in outputs}
    assert set(by_name) == {"resp", "logs"}
    assert by_name["resp"].item("result").data == b"answer"
    assert by_name["logs"].item("log1").key == "shard0"


def test_declared_empty_output_set_present():
    vfs = make_vfs()
    outputs = vfs.collect_outputs()
    assert [s.ident for s in outputs] == ["resp", "logs"]
    assert all(len(s) == 0 for s in outputs)


def test_written_output_readable_back():
    vfs = make_vfs()
    vfs.write_bytes("/out/resp/a", b"1")
    assert vfs.read_bytes("/out/resp/a") == b"1"


def test_append_mode_extends():
    vfs = make_vfs()
    vfs.write_text("/out/logs/l", "one")
    with vfs.open("/out/logs/l", "a") as handle:
        handle.write(" two")
    assert vfs.read_text("/out/logs/l") == "one two"


def test_overwrite_replaces():
    vfs = make_vfs()
    vfs.write_bytes("/out/resp/r", b"old")
    vfs.write_bytes("/out/resp/r", b"new")
    assert vfs.read_bytes("/out/resp/r") == b"new"
    assert len(vfs.collect_outputs()[0]) == 1


def test_published_item_is_collected_by_reference():
    vfs = make_vfs()
    item = EnvelopeItem("reply", {"status": 200}, "body_hex", b"\x01", key="k")
    vfs.write_item("/out/resp/reply", item)
    assert vfs.read_bytes("/out/resp/reply") == item.data
    with vfs.open("/out/resp/reply", "ab") as handle:  # appending writes bytes
        handle.write(b"!")
    assert vfs.read_bytes("/out/resp/reply") == item.data + b"!"
    vfs.write_item("/out/resp/reply", item)
    (collected,) = vfs.collect_outputs()[0]
    assert collected is item and collected.key == "k"


@pytest.mark.parametrize("path, item", [
    ("/out/resp/other", DataItem("reply", b"x")),  # not named as the file
    ("/out/resp/reply", b"x"),  # not an item
    ("/in/req/reply", DataItem("reply", b"x")),  # not an output
])
def test_publishing_a_misfit_item_raises(path, item):
    with pytest.raises(VfsError):
        make_vfs().write_item(path, item)


def test_listdir_roots_and_sets():
    vfs = make_vfs()
    assert vfs.listdir("/") == ["in", "out"]
    assert vfs.listdir("/in") == ["config", "req"]
    assert vfs.listdir("/out") == ["logs", "resp"]
    assert vfs.listdir("/in/req") == ["body", "token"]


def test_listdir_outputs_reflect_writes():
    vfs = make_vfs()
    assert vfs.listdir("/out/resp") == []
    vfs.write_bytes("/out/resp/b", b"")
    vfs.write_bytes("/out/resp/a", b"")
    assert vfs.listdir("/out/resp") == ["a", "b"]


def test_listdir_missing_raises():
    vfs = make_vfs()
    with pytest.raises(VfsError):
        vfs.listdir("/in/ghost")


def test_exists():
    vfs = make_vfs()
    assert vfs.exists("/in/req/token")
    assert vfs.exists("/in/req")
    assert not vfs.exists("/in/req/ghost")
    assert not vfs.exists("/elsewhere")


def test_duplicate_input_set_rejected():
    sets = [DataSet("a"), DataSet("a")]
    with pytest.raises(VfsError):
        VirtualFileSystem(sets, [])


def test_duplicate_output_name_rejected():
    with pytest.raises(VfsError):
        VirtualFileSystem([], ["x", "x"])


def test_unsupported_mode_rejected():
    vfs = make_vfs()
    with pytest.raises(VfsError):
        vfs.open("/in/req/token", "r+")


_safe_names = st.text(
    alphabet=st.characters(min_codepoint=48, max_codepoint=122, exclude_characters="/\\"),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_safe_names, st.binary(max_size=64), min_size=0, max_size=6))
def test_property_outputs_roundtrip_through_collection(files):
    # Everything written under a declared output folder comes back as
    # exactly one output item with identical bytes.
    vfs = VirtualFileSystem([], ["out"])
    for name, data in files.items():
        vfs.write_bytes(f"/out/out/{name}", data)
    (collected,) = vfs.collect_outputs()
    assert {item.ident: item.data for item in collected} == files


# -- the item-path memo ---------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda vfs: vfs.read_bytes("in/req/token"),
        lambda vfs: vfs.read_bytes("/in/../x"),
        lambda vfs: vfs.read_bytes("/in/req"),
        lambda vfs: vfs.write_bytes("out/resp/r", b""),
        lambda vfs: vfs.write_bytes("/out/resp", b""),
        lambda vfs: vfs.write_bytes("/out/unknown/file", b""),
        lambda vfs: vfs.write_bytes("/in/req/token", b""),
    ],
)
def test_bad_path_raises_on_every_call(call):
    # A path that fails to parse is never memoised, and a memoised
    # path is still checked against this filesystem's sets.
    for vfs in (make_vfs(), make_vfs()):
        for _ in range(2):
            with pytest.raises(VfsError):
                call(vfs)


def test_memoised_path_is_rechecked_per_filesystem():
    make_vfs().write_bytes("/out/resp/r", b"1")
    with pytest.raises(VfsError):
        VirtualFileSystem([], ["other"]).write_bytes("/out/resp/r", b"1")
    vfs = VirtualFileSystem([], ["resp"])
    vfs.write_bytes("/out/resp/r", b"2")
    assert vfs.read_bytes("/out/resp/r") == b"2"


def test_item_path_memo_is_bounded():
    vfs = make_vfs()
    for index in range(3 * vfs_module._ITEM_PATH_LIMIT):
        vfs.write_bytes(f"/out/logs/item{index}", b"")
        assert len(vfs_module._item_paths) <= vfs_module._ITEM_PATH_LIMIT
    assert len(vfs.listdir("/out/logs")) == 3 * vfs_module._ITEM_PATH_LIMIT


def test_unnormalised_paths_share_the_clean_file():
    vfs = make_vfs()
    vfs.write_bytes("/out/resp//a/../r", b"x")
    assert vfs.read_bytes("/out/resp/r") == b"x"
    assert vfs.read_bytes("/out/./resp/r") == b"x"
    assert vfs.listdir("/out/resp") == ["r"]
    with vfs.open("/out/resp/./r", "rb") as handle:
        assert handle.read() == b"x"
    assert vfs.exists("/out//resp/r") and not vfs.exists("/out/resp/r/x")
