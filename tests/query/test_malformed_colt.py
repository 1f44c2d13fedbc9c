"""Every malformed COLT blob is a ``TableError`` — never ``struct.error``,
``KeyError``, a numpy exception, ``UnicodeDecodeError`` or garbage rows."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query import Table, TableError


def colt(header, *buffers: bytes, magic: bytes = b"COLT", trailer: bytes = b"") -> bytes:
    header_blob = header if isinstance(header, bytes) else json.dumps(header).encode()
    body = b"".join(struct.pack("<Q", len(buffer)) + buffer for buffer in buffers)
    return magic + struct.pack("<I", len(header_blob)) + header_blob + body + trailer


def offsets(*values: int) -> bytes:
    return np.asarray(values, dtype="<i8").tobytes()


def strings_header(rows=3):
    return {"name": "t", "rows": rows, "columns": [{"name": "s", "kind": "string"}]}


def numeric_header(dtype="<i8", rows=2, **extra):
    column = {"name": "n", "kind": "numeric", "dtype": dtype, **extra}
    return {"name": "t", "rows": rows, "columns": [column]}


INT64_PAIR = np.asarray([1, 2], dtype="<i8").tobytes()

CORPUS = {
    # envelope
    "empty blob": (b"", "bad magic"),
    "shorter than the fixed header": (b"COLT\x01", "short header"),
    "wrong magic": (colt(numeric_header(), INT64_PAIR, magic=b"COLX"), "bad magic"),
    "header is not JSON": (colt(b"{nope"), "corrupt table header"),
    "header is not UTF-8": (colt(b"\xff\xfe"), "corrupt table header"),
    "header length runs past the blob": (b"COLT" + struct.pack("<I", 999) + b"{}", "corrupt table header"),
    # header shape
    "header is a list": (colt([1, 2]), "corrupt table header"),
    "header is a number": (colt(5), "corrupt table header"),
    "header lacks name": (colt({"rows": 0, "columns": []}), "corrupt table header"),
    "header lacks rows": (colt({"name": "t", "columns": []}), "corrupt table header"),
    "header lacks columns": (colt({"name": "t", "rows": 0}), "corrupt table header"),
    "name is not a string": (colt({"name": 7, "rows": 0, "columns": []}), "bad name or row count"),
    "name is empty": (colt({"name": "", "rows": 0, "columns": []}), "non-empty"),
    "rows is a string": (colt({"name": "t", "rows": "2", "columns": []}), "bad name or row count"),
    "rows is negative": (colt({"name": "t", "rows": -1, "columns": []}), "bad name or row count"),
    "columns is a number": (colt({"name": "t", "rows": 0, "columns": 3}), "corrupt table header"),
    "descriptor is a string": (colt({"name": "t", "rows": 0, "columns": ["n"]}), "corrupt table header"),
    "descriptor lacks kind": (colt({"name": "t", "rows": 0, "columns": [{"name": "n"}]}), "corrupt table header"),
    "column name is a list": (colt({"name": "t", "rows": 2, "columns": [{"name": [], "kind": "numeric", "dtype": "<i8"}]}, INT64_PAIR), "bad name or row count"),
    "column name is a number": (colt({"name": "t", "rows": 0, "columns": [{"name": 3, "kind": "string"}]}), "bad name or row count"),
    "unknown column kind": (colt({"name": "t", "rows": 0, "columns": [{"name": "n", "kind": "blob"}]}), "unknown column kind"),
    # numeric columns
    "unknown dtype": (colt(numeric_header("zz9"), INT64_PAIR), "no numeric dtype"),
    "object dtype": (colt(numeric_header("O"), INT64_PAIR), "no numeric dtype"),
    "unicode dtype": (colt(numeric_header("<U2"), INT64_PAIR), "no numeric dtype"),
    "structured dtype": (colt(numeric_header("i4,i4"), INT64_PAIR), "no numeric dtype"),
    "comma dtype with a bad byte order": (colt(numeric_header("i4,@"), INT64_PAIR), "no numeric dtype"),
    "comma dtype with an empty field": (colt(numeric_header("i4,,"), INT64_PAIR), "no numeric dtype"),
    "missing dtype": (colt({"name": "t", "rows": 2, "columns": [{"name": "n", "kind": "numeric"}]}, INT64_PAIR), "no numeric dtype"),
    "dtype is a list": (colt(numeric_header([["a", "<i4"]]), INT64_PAIR), "no numeric dtype"),
    "numeric buffer of the wrong row count": (colt(numeric_header(rows=3), INT64_PAIR), "does not hold"),
    "numeric buffer not a multiple of the item size": (colt(numeric_header(), INT64_PAIR[:-3]), "does not hold"),
    "missing buffer": (colt(numeric_header()), "truncated"),
    "buffer length runs past the blob": (colt(numeric_header(), INT64_PAIR)[:-4], "truncated"),
    "trailing bytes": (colt(numeric_header(), INT64_PAIR, trailer=b"\x00"), "trailing"),
    "an extra buffer": (colt(numeric_header(), INT64_PAIR, INT64_PAIR), "trailing"),
    # string columns
    "invalid UTF-8 payload": (colt(strings_header(1), offsets(0, 2), b"\xff\xfe"), "UTF-8"),
    "offsets do not start at 0": (colt(strings_header(), offsets(1, 3, 6, 6), b"xyyzzz"), "invalid offsets"),
    "offsets decrease": (colt(strings_header(), offsets(0, 100, 2, 6), b"xyyzzz"), "invalid offsets"),
    "offsets end past the payload": (colt(strings_header(), offsets(0, 1, 3, 7), b"xyyzzz"), "invalid offsets"),
    "offsets are negative": (colt(strings_header(), offsets(0, -2, -1, 6), b"xyyzzz"), "invalid offsets"),
    "offset inside a character": (colt(strings_header(2), offsets(0, 1, 2), "é".encode()), "UTF-8"),
    "offsets of the wrong row count": (colt(strings_header(), offsets(0, 1, 3), b"xyy"), "does not hold"),
    "offsets buffer not a multiple of 8": (colt(strings_header(), offsets(0, 1, 3, 6)[:-1], b"xyyzzz"), "does not hold"),
    "payload buffer missing": (colt(strings_header(), offsets(0, 1, 3, 6)), "truncated"),
}


@pytest.mark.parametrize("blob, message", CORPUS.values(), ids=CORPUS.keys())
def test_malformed_blob_is_a_table_error(blob, message):
    with pytest.raises(TableError, match=message):
        Table.from_bytes(blob)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="iufbOSUVcmM<>|=@,()[]{}:'\" 0123456789", max_size=8))
def test_any_dtype_string_parses_or_is_a_table_error(dtype):
    # numpy answers a bad dtype string with TypeError, ValueError or
    # (comma strings go through a Python parser) SyntaxError.
    try:
        Table.from_bytes(colt(numeric_header(dtype), INT64_PAIR))
    except TableError:
        pass


def test_corpus_builder_produces_well_formed_blobs():
    # The control: the same builder, nothing broken, parses — so each
    # corpus entry fails for the one thing it breaks.
    numeric = Table.from_bytes(colt(numeric_header(), INT64_PAIR))
    assert numeric.column("n").tolist() == [1, 2]
    strings = Table.from_bytes(colt(strings_header(), offsets(0, 1, 3, 6), b"xyyzzz"))
    assert strings.column("s").tolist() == ["x", "yy", "zzz"]
    assert Table.from_bytes(strings.to_bytes()).column("s").tolist() == ["x", "yy", "zzz"]


def test_every_truncation_of_a_valid_blob_is_a_table_error():
    blob = Table("t", {"i": [1, 2, 3], "s": ["a", "é", ""], "f": [0.5, 1.5, 2.5]}).to_bytes()
    for length in range(len(blob)):
        with pytest.raises(TableError):
            Table.from_bytes(blob[:length])
