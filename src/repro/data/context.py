"""Memory contexts — the dispatcher's memory-management abstraction (§5).

A memory context is "a bounded, contiguous memory region with methods
to read or write at particular offsets and methods to transfer data to
other contexts".  The dispatcher prepares one per ready function,
stores upstream outputs into it, and frees it once all consumers have
drained its outputs.

The reproduction models a context by its accounting only.  Sets pass
between functions by reference; :meth:`MemoryContext.store_sets`
charges their exact wire size, computed by :func:`serialized_size`
without building the blob, against the context's reserved capacity.
*Committed* pages are derived from the stored extent, mirroring the
paper's demand paging ("Dandelion reserves this amount of virtual
memory for the context and uses demand paging to allocate zeroed pages
as needed").  Committed bytes are what the Azure-trace memory
experiments (Figs 1 and 10) account for.  See docs/dataplane.md for
the cost model.

The wire layout (magic ``DND2``) is a length-prefixed record body
followed by a *footer offset table* — per-set record offsets, item
counts, payload/wire byte totals, and a flat per-item record-offset
array — so a reader can seek to any set or item in O(1).
:func:`serialize_sets` writes it and :func:`parse_sets` is its strict
validation codec, which cross-checks the footer against a full body
scan; :func:`repro.data.lazy.parse_sets_lazy` builds zero-parse views
over it.  No run path parses a function's output: §8's small output
parser is modelled by accounting only, and these codecs are the oracle
that pins :func:`serialized_size` to the bytes it charges for.
"""

from __future__ import annotations

import struct
from typing import Iterable

from .items import DataItem, DataSet

__all__ = [
    "MemoryContext",
    "ContextError",
    "serialize_sets",
    "serialized_size",
    "parse_sets",
    "PAGE_SIZE",
]

PAGE_SIZE = 4096

_MAGIC2 = b"DND2"
_HEADER2 = struct.Struct("<4sIQ")  # magic, set count, footer offset
_LENGTH = struct.Struct("<I")
# Footer set entry: set record offset, item count, total payload bytes,
# total item-record (wire) bytes.
_SET_ENTRY = struct.Struct("<QIQQ")
_ITEM_ENTRY = struct.Struct("<Q")  # item record offset

# Hard caps enforced by the parser so malicious output data cannot make
# the trusted side allocate unbounded memory.
_MAX_SETS = 4096
_MAX_ITEMS_PER_SET = 1 << 20
_MAX_NAME_LENGTH = 4096


class ContextError(Exception):
    """Raised for a store past a context's capacity or into a freed
    context, and for malformed set data."""


class MemoryContext:
    """A bounded memory region owned by one function run (accounting only)."""

    __slots__ = ("ident", "_capacity", "_extent", "_freed")

    def __init__(self, capacity: int, ident: str = ""):
        if capacity <= 0:
            raise ContextError("context capacity must be positive")
        self.ident = ident
        self._capacity = int(capacity)
        self._extent = 0  # logical high-water mark (committed accounting)
        self._freed = False

    @property
    def capacity(self) -> int:
        """Reserved (virtual) size in bytes."""
        return self._capacity

    @property
    def committed(self) -> int:
        """Bytes of physical memory committed (page granularity)."""
        extent = self._extent
        if not extent:
            return 0
        return ((extent + PAGE_SIZE - 1) // PAGE_SIZE) * PAGE_SIZE

    @property
    def freed(self) -> bool:
        return self._freed

    def free(self) -> None:
        """Release the region; a later store is an error."""
        self._extent = 0
        self._freed = True

    def _check_alive(self) -> None:
        if self._freed:
            raise ContextError(f"context {self.ident!r} already freed")

    def store_sets(self, sets: Iterable[DataSet], offset: int = 0) -> int:
        """Charge ``sets`` as stored at ``offset``; returns encoded size.

        The committed extent grows to ``offset`` plus the exact
        serialized size (computed without building the blob), after the
        capacity check.  The context keeps no reference to the sets.
        """
        self._check_alive()
        if offset < 0:
            raise ContextError("negative offset")
        size = serialized_size(sets)
        end = offset + size
        if end > self._capacity:
            raise ContextError(
                f"access at {end} exceeds context capacity {self._capacity}"
            )
        if end > self._extent:
            self._extent = end
        return size

    def __repr__(self) -> str:
        state = "freed" if self._freed else f"{self.committed}B committed"
        return f"MemoryContext({self.ident!r}, cap={self._capacity}, {state})"


def serialize_sets(sets: Iterable[DataSet]) -> bytes:
    """Encode sets into the length-prefixed wire layout.

    The body is followed by the footer offset table that makes the
    blob seekable.
    """
    sets = list(sets)
    parts: list = [b""]  # header placeholder, patched once offsets are known
    offset = _HEADER2.size
    set_entries: list[tuple[int, int, int, int]] = []
    item_offsets: list[int] = []
    for data_set in sets:
        set_offset = offset
        name = _encode_name(data_set.ident)
        count = len(data_set)
        parts.append(name)
        parts.append(_LENGTH.pack(count))
        offset += len(name) + 4
        payload_total = 0
        wire_total = 0
        for item in data_set:
            item_offsets.append(offset)
            item_name = _encode_name(item.ident)
            key = item.key
            key_name = _encode_name(key if key is not None else "")
            data = item.data
            parts.append(item_name)
            parts.append(key_name)
            parts.append(_LENGTH.pack(1 if key is not None else 0))
            parts.append(_LENGTH.pack(len(data)))
            parts.append(data)
            record = len(item_name) + len(key_name) + 8 + len(data)
            offset += record
            payload_total += len(data)
            wire_total += record
        set_entries.append((set_offset, count, payload_total, wire_total))
    parts[0] = _HEADER2.pack(_MAGIC2, len(sets), offset)
    for entry in set_entries:
        parts.append(_SET_ENTRY.pack(*entry))
    parts.append(struct.pack(f"<{len(item_offsets)}Q", *item_offsets))
    return b"".join(parts)


def serialized_size(sets: Iterable[DataSet]) -> int:
    """Exact ``len(serialize_sets(sets))`` without the blob.

    This is the accounting half of the data plane: the dispatcher uses
    it to charge committed pages for a store without paying the copy.
    A hypothesis property test pins it byte-for-byte to the eager
    encoder, including the name-length validation.  The footer adds
    ``_SET_ENTRY.size`` per set plus 8 bytes per item on top of the
    body; lazy views carry their body wire size from the footer, so
    re-storing a lazy set stays O(1) per set.
    """
    size = _HEADER2.size
    for data_set in sets:
        size += 8 + _name_length(data_set.ident)  # name + item count
        size += _SET_ENTRY.size + _ITEM_ENTRY.size * len(data_set)
        wire = getattr(data_set, "_wire", None)
        if wire is None:
            # Items are immutable and often shared across renamed sets,
            # so the sum is cached on the set and reused at every
            # downstream store (the chain hot path).
            wire = 0
            for item in data_set:
                # 16 bytes of fields, two names, and item.size (not .data).
                key = item.key
                wire += 16 + item.size + _name_length(item.ident)
                if key is not None:
                    wire += _name_length(key)
            try:
                data_set._wire = wire
            except AttributeError:
                pass  # plain iterables without the cache slot
        size += wire
    return size


def _name_length(name: str) -> int:
    """UTF-8 byte length of ``name``, with the encoder's length check."""
    length = len(name) if name.isascii() else len(name.encode("utf-8"))
    if length > _MAX_NAME_LENGTH:
        raise ContextError(f"name longer than {_MAX_NAME_LENGTH} bytes")
    return length


def _encode_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > _MAX_NAME_LENGTH:
        raise ContextError(f"name longer than {_MAX_NAME_LENGTH} bytes")
    return _LENGTH.pack(len(raw)) + raw


class _Cursor:
    """Bounds-checked reader over untrusted bytes (or a memoryview)."""

    __slots__ = ("blob", "position")

    def __init__(self, blob):
        self.blob = blob
        self.position = 0

    def take(self, length: int):
        if length < 0 or self.position + length > len(self.blob):
            raise ContextError("truncated context data")
        chunk = self.blob[self.position : self.position + length]
        self.position += length
        return chunk

    def u32(self) -> int:
        return _LENGTH.unpack(self.take(4))[0]

    def name(self, allow_empty: bool = True) -> str:
        length = self.u32()
        if length > _MAX_NAME_LENGTH:
            raise ContextError("name too long")
        raw = self.take(length)
        try:
            text = bytes(raw).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ContextError("name is not valid UTF-8") from exc
        if not text and not allow_empty:
            raise ContextError("empty name")
        return text


def parse_sets(blob) -> list[DataSet]:
    """Strictly parse untrusted set data.

    Accepts ``bytes`` or a ``memoryview``; only item payloads are
    copied out.  Every length is validated before use; malformed or
    truncated data raises :class:`ContextError` rather than producing
    partial results.  The footer offset table is cross-validated
    against the full body scan (offsets, counts, payload/wire totals
    must all agree), which is why this stays the validation/debug
    codec while :func:`repro.data.lazy.parse_sets_lazy` trusts the
    footer for the fast path.
    """
    set_count, set_entries, per_set_offsets = _parse_footer(blob)
    footer_offset = _HEADER2.unpack(bytes(blob[: _HEADER2.size]))[2]
    cursor = _Cursor(blob)
    cursor.position = _HEADER2.size
    sets: list[DataSet] = []
    for index in range(set_count):
        set_offset, item_count, payload_total, wire_total = set_entries[index]
        if cursor.position != set_offset:
            raise ContextError("footer set offset disagrees with body scan")
        set_ident = cursor.name(allow_empty=False)
        scanned_count = cursor.u32()
        if scanned_count != item_count:
            raise ContextError("footer item count disagrees with body scan")
        if item_count > _MAX_ITEMS_PER_SET:
            raise ContextError("item count exceeds limit")
        data_set = DataSet(set_ident)
        body_start = cursor.position
        scanned_payload = 0
        for item_index in range(item_count):
            if cursor.position != per_set_offsets[index][item_index]:
                raise ContextError("footer item offset disagrees with body scan")
            item_ident = cursor.name(allow_empty=False)
            key_text = cursor.name()
            has_key = cursor.u32()
            if has_key not in (0, 1):
                raise ContextError("invalid key flag")
            payload_length = cursor.u32()
            payload = bytes(cursor.take(payload_length))
            scanned_payload += payload_length
            data_set.add(DataItem(item_ident, payload, key=key_text if has_key else None))
        if scanned_payload != payload_total:
            raise ContextError("footer payload total disagrees with body scan")
        if cursor.position - body_start != wire_total:
            raise ContextError("footer wire total disagrees with body scan")
        sets.append(data_set)
    if cursor.position != footer_offset:
        raise ContextError("body does not end at footer offset")
    return sets


def _check_magic(blob) -> None:
    """Reject any blob not headed by the wire magic, before any record."""
    if blob[:4] != _MAGIC2:  # bytes or memoryview: compares contents
        raise ContextError("bad magic: context does not contain set data")


def _parse_footer(blob) -> "tuple[int, list[tuple[int, int, int, int]], list[list[int]]]":
    """Decode and bounds-check a blob's header and footer.

    Returns ``(set_count, set_entries, per_set_item_offsets)``.  Only
    structural validity is checked here (the lazy reader's trust
    boundary); :func:`parse_sets` additionally cross-checks every entry
    against a body scan.
    """
    _check_magic(blob)
    if len(blob) < _HEADER2.size:
        raise ContextError("truncated context data")
    _, set_count, footer_offset = _HEADER2.unpack(bytes(blob[: _HEADER2.size]))
    if set_count > _MAX_SETS:
        raise ContextError("set count exceeds limit")
    footer_end = footer_offset + set_count * _SET_ENTRY.size
    if footer_offset < _HEADER2.size or footer_end > len(blob):
        raise ContextError("footer offset out of bounds")
    set_entries: list[tuple[int, int, int, int]] = []
    total_items = 0
    position = footer_offset
    for _ in range(set_count):
        entry = _SET_ENTRY.unpack(bytes(blob[position : position + _SET_ENTRY.size]))
        set_offset, item_count, payload_total, wire_total = entry
        if item_count > _MAX_ITEMS_PER_SET:
            raise ContextError("item count exceeds limit")
        if not _HEADER2.size <= set_offset < footer_offset:
            raise ContextError("set offset out of bounds")
        if payload_total > wire_total or wire_total > footer_offset:
            raise ContextError("inconsistent footer byte totals")
        set_entries.append(entry)
        total_items += item_count
        position += _SET_ENTRY.size
    offsets_end = footer_end + total_items * _ITEM_ENTRY.size
    if offsets_end > len(blob):
        raise ContextError("truncated footer item offsets")
    flat = struct.unpack(f"<{total_items}Q", bytes(blob[footer_end:offsets_end]))
    per_set: list[list[int]] = []
    cursor = 0
    for _, item_count, _, _ in set_entries:
        offsets = list(flat[cursor : cursor + item_count])
        for item_offset in offsets:
            if not _HEADER2.size <= item_offset < footer_offset:
                raise ContextError("item offset out of bounds")
        per_set.append(offsets)
        cursor += item_count
    return set_count, set_entries, per_set



