"""Shared malformed-blob corpus for the two set codecs.

Every entry is a wire blob that a hostile or buggy function could have
left in its output region, together with the *stage* at which the lazy
codec surfaces the problem:

* ``"index"`` — :func:`~repro.data.lazy.parse_sets_lazy` itself raises
  :class:`~repro.data.context.ContextError` (header/footer damage, and
  every blob in the retired v1 layout, whose magic is rejected).
* ``"touch"`` — indexing succeeds (the footer is structurally sound)
  and the error surfaces when the poisoned record is first touched:
  reading a set name, iterating items, or materializing a payload.

The strict codec (:func:`~repro.data.context.parse_sets`) must reject
every entry at parse time regardless of stage — that is the parity
contract ``tests/data/test_lazy.py`` enforces via
:func:`verify_corpus_rejections`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.data.context import _HEADER2, _SET_ENTRY, serialize_sets
from repro.data.items import DataItem, DataSet

__all__ = ["MalformedBlob", "CORPUS", "V1_BLOB", "touch_all", "verify_corpus_rejections"]


@dataclass(frozen=True)
class MalformedBlob:
    """One corpus entry: a bad blob and where the lazy codec rejects it."""

    name: str
    blob: bytes
    lazy_stage: str  # "index" | "touch"


def _base_sets() -> list[DataSet]:
    return [
        DataSet("first", [DataItem("a", b"hello", key="k"), DataItem("b", b"world")]),
        DataSet("second", [DataItem("c", b"!")]),
    ]


def _patched(blob: bytes, offset: int, replacement: bytes) -> bytes:
    return blob[:offset] + replacement + blob[offset + len(replacement) :]


# The retired scan-only v1 header: magic, set count.
_V1_HEADER = struct.Struct("<4sI")


def _as_v1(blob: bytes) -> bytes:
    """Re-head a v2 blob as v1: same body, scan-only header, no footer."""
    _, set_count, footer_offset = _HEADER2.unpack_from(blob, 0)
    return _V1_HEADER.pack(b"DNDL", set_count) + blob[_HEADER2.size : footer_offset]


# The v1 encoding of _base_sets().  No reader accepts v1 any more; this
# is what the v1 corpus entries are cut from, what the rejection test
# parses and what the footer's cost is measured against.
V1_BLOB = _as_v1(serialize_sets(_base_sets()))


def _build_corpus() -> list[MalformedBlob]:
    blob = serialize_sets(_base_sets())
    _, set_count, footer_offset = _HEADER2.unpack_from(blob, 0)
    footer_end = footer_offset + set_count * _SET_ENTRY.size
    set0_offset, set0_count, _, _ = _SET_ENTRY.unpack_from(blob, footer_offset)
    item_offsets = struct.unpack_from(f"<{set0_count}Q", blob, footer_end)

    corpus = [
        MalformedBlob("empty", b"", "index"),
        MalformedBlob("bad_magic", b"XXXX" + blob[4:], "index"),
        MalformedBlob("v2_truncated_header", blob[:10], "index"),
        MalformedBlob(
            "v2_huge_set_count",
            _patched(blob, 4, struct.pack("<I", 1 << 30)),
            "index",
        ),
        MalformedBlob(
            "v2_footer_past_end",
            _patched(blob, 8, struct.pack("<Q", len(blob) + 64)),
            "index",
        ),
        MalformedBlob(
            "v2_footer_inside_header",
            _patched(blob, 8, struct.pack("<Q", 4)),
            "index",
        ),
        MalformedBlob("v2_truncated_item_offsets", blob[: footer_end + 4], "index"),
        MalformedBlob(
            "v2_set_offset_past_footer",
            _patched(blob, footer_offset, struct.pack("<Q", footer_offset)),
            "index",
        ),
        MalformedBlob(
            "v2_payload_total_exceeds_wire",
            _patched(
                blob,
                footer_offset,
                _SET_ENTRY.pack(set0_offset, set0_count, 1 << 40, 8),
            ),
            "index",
        ),
        # Structurally sound footer, poisoned records: the lazy codec
        # only notices when the record is touched.
        MalformedBlob(
            "v2_item_offset_past_footer",
            _patched(blob, footer_end, struct.pack("<Q", footer_offset + 1)),
            "touch",
        ),
        MalformedBlob(
            "v2_empty_set_name",
            _patched(blob, set0_offset, struct.pack("<I", 0)),
            "touch",
        ),
        MalformedBlob(
            "v2_invalid_utf8_item_name",
            # item 'a' record: name length 1 then the byte itself.
            _patched(blob, item_offsets[0] + 4, b"\xff"),
            "touch",
        ),
        MalformedBlob(
            "v2_invalid_key_flag",
            # key flag of item 'a': after name (4+1) and key (4+1).
            _patched(blob, item_offsets[0] + 10, struct.pack("<I", 7)),
            "touch",
        ),
        MalformedBlob(
            "v2_payload_runs_past_footer",
            # payload length of item 'a': after name, key, flag.
            _patched(blob, item_offsets[0] + 14, struct.pack("<I", 1 << 20)),
            "touch",
        ),
        MalformedBlob(
            "v2_footer_count_disagrees_with_body",
            # body item count of set 0 sits right after its name (4+5).
            _patched(blob, set0_offset + 9, struct.pack("<I", set0_count + 1)),
            "touch",
        ),
        # v1 blobs are rejected by their magic, so every defect is an
        # index-stage rejection for the lazy codec too.
        MalformedBlob("v1_truncated", V1_BLOB[: len(V1_BLOB) // 2], "index"),
        MalformedBlob(
            "v1_huge_set_count",
            _patched(V1_BLOB, 4, struct.pack("<I", 1 << 30)),
            "index",
        ),
    ]
    return corpus


CORPUS: list[MalformedBlob] = _build_corpus()


def touch_all(sets) -> None:
    """Fully consume lazy views: names, keys, lookups, payload bytes."""
    for data_set in sets:
        data_set.ident
        for item in data_set:
            item.ident
            item.key
            item.data


def verify_corpus_rejections() -> list[str]:
    """Check both codecs reject every corpus entry; returns failures.

    Empty list means the parity contract holds: the strict codec raises
    at parse time, the lazy codec raises at its annotated stage, and
    nothing raises anything other than ``ContextError``.
    """
    from repro.data.context import ContextError, parse_sets
    from repro.data.lazy import parse_sets_lazy

    failures: list[str] = []
    for entry in CORPUS:
        try:
            parse_sets(entry.blob)
            failures.append(f"{entry.name}: strict codec accepted the blob")
        except ContextError:
            pass
        except Exception as exc:  # noqa: BLE001 - the contract is ContextError only
            failures.append(f"{entry.name}: strict codec raised {type(exc).__name__}")
        try:
            sets = parse_sets_lazy(entry.blob)
            if entry.lazy_stage == "index":
                failures.append(f"{entry.name}: lazy codec indexed the blob")
                continue
            touch_all(sets)
            failures.append(f"{entry.name}: lazy codec accepted the blob on touch")
        except ContextError:
            if entry.lazy_stage == "touch":
                # Raising already at index time would also be a parity
                # break: the annotation documents where the cost lands.
                try:
                    parse_sets_lazy(entry.blob)
                except ContextError:
                    failures.append(f"{entry.name}: annotated touch but raised at index")
        except Exception as exc:  # noqa: BLE001
            failures.append(f"{entry.name}: lazy codec raised {type(exc).__name__}")
    return failures
