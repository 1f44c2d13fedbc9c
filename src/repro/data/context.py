"""Memory contexts — the dispatcher's memory-management abstraction (§5).

A memory context is "a bounded, contiguous memory region with methods
to read or write at particular offsets and methods to transfer data to
other contexts".  The dispatcher prepares one per ready function,
copies upstream outputs into it, and tears it down once all consumers
have drained its outputs.

The reproduction backs each context with a real ``bytearray`` and
tracks *committed* pages separately from *reserved* capacity, mirroring
the paper's demand-paging behaviour ("Dandelion reserves this amount of
virtual memory for the context and uses demand paging to allocate
zeroed pages as needed").  Committed bytes are what the Azure-trace
memory experiments (Figs 1 and 10) account for.

The data plane is *accounting-first*: :meth:`MemoryContext.store_sets`
computes the exact serialized size via :func:`serialized_size` and
records the store as pending, without building the blob.  Committed
pages are derived from the logical extent, so the common dispatcher
path (store inputs, store outputs, observe, free) costs O(names), not
O(payload bytes).  Bytes are materialized lazily — cached in the
backing buffer, in original store order — only when something actually
reads the region (``read``/``load_sets``/``transfer_to``).  See
docs/dataplane.md for the full cost model.

Sets are serialised into the region with a small length-prefixed binary
layout; :func:`parse_sets` is the strict ~100-line "function output
parser" the security analysis in §8 talks about.

The wire format is versioned (see docs/dataplane.md):

* **v1** (magic ``DNDL``) is the original scan-only layout: the reader
  must walk every record to find anything.
* **v2** (magic ``DND2``, the default) appends a *footer offset table*
  — per-set record offsets, item counts, payload/wire byte totals, and
  a flat per-item record-offset array — so a reader can seek to any set
  or item in O(1) instead of scanning.  :func:`repro.data.lazy.parse_sets_lazy`
  (what :meth:`MemoryContext.load_sets` returns) builds zero-parse
  views over it; :func:`parse_sets` stays the strict eager
  validation/debug codec and cross-checks the footer against a full
  body scan.
"""

from __future__ import annotations

import struct
from typing import Iterable, Optional

from .items import DataItem, DataSet

__all__ = [
    "MemoryContext",
    "ContextError",
    "serialize_sets",
    "serialized_size",
    "parse_sets",
    "PAGE_SIZE",
    "WIRE_VERSION",
]

PAGE_SIZE = 4096

WIRE_VERSION = 2

_MAGIC = b"DNDL"                   # v1: scan-only
_MAGIC2 = b"DND2"                  # v2: v1 body + footer offset table
_HEADER = struct.Struct("<4sI")    # magic, set count
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
    """Raised for out-of-bounds access or malformed context contents."""


class MemoryContext:
    """A bounded, contiguous memory region owned by one function run."""

    __slots__ = ("ident", "_capacity", "_buffer", "_extent", "_pending", "_freed")

    def __init__(self, capacity: int, ident: str = ""):
        if capacity <= 0:
            raise ContextError("context capacity must be positive")
        self.ident = ident
        self._capacity = int(capacity)
        self._buffer = bytearray()  # grows on demand, never beyond capacity
        self._extent = 0  # logical high-water mark (committed accounting)
        # Pending lazy stores: (offset, sets) tuples in store order.
        self._pending: list[tuple[int, list[DataSet]]] = []
        self._freed = False

    # -- accounting -----------------------------------------------------

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
        """Release the backing memory; further access is an error."""
        self._buffer = bytearray()
        self._pending = []
        self._extent = 0
        self._freed = True

    def _check_alive(self) -> None:
        if self._freed:
            raise ContextError(f"context {self.ident!r} already freed")

    def _ensure(self, end: int) -> None:
        if end > self._capacity:
            raise ContextError(
                f"access at {end} exceeds context capacity {self._capacity}"
            )
        if end > len(self._buffer):
            # Demand-"page in" zeroed memory.
            self._buffer.extend(b"\x00" * (end - len(self._buffer)))

    def _materialize(self) -> None:
        """Serialise pending lazy stores into the backing buffer.

        Stores are applied in their original order, so a raw write that
        happened after a lazy store keeps its bytes (raw writes drain
        pending stores before touching the buffer).
        """
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for offset, sets in pending:
            blob = serialize_sets(sets)
            self._ensure(offset + len(blob))
            self._buffer[offset : offset + len(blob)] = blob

    # -- raw access -------------------------------------------------------

    def write(self, offset: int, data) -> None:
        """Copy ``data`` (any bytes-like) into the region at ``offset``."""
        self._check_alive()
        if offset < 0:
            raise ContextError("negative offset")
        self._materialize()
        end = offset + len(data)
        self._ensure(end)
        self._buffer[offset:end] = data
        if end > self._extent:
            self._extent = end

    def read(self, offset: int, length: int) -> bytes:
        """Copy ``length`` bytes out of the region at ``offset``."""
        return bytes(self.read_view(offset, length))

    def read_view(self, offset: int, length: int) -> memoryview:
        """Zero-copy view of ``length`` bytes at ``offset``.

        The view aliases the backing buffer: it is valid until the next
        write or :meth:`free`.  ``transfer_to`` uses it so a context-to-
        context move costs one copy (into the destination) instead of
        two.
        """
        self._check_alive()
        if offset < 0 or length < 0:
            raise ContextError("negative offset or length")
        if offset + length > self._capacity:
            raise ContextError("read past end of context")
        self._materialize()
        self._ensure(offset + length)
        return memoryview(self._buffer)[offset : offset + length]

    def transfer_to(self, other: "MemoryContext", src_offset: int, dst_offset: int, length: int) -> None:
        """Copy a range of this context into another context.

        This is the specialised context-to-context transfer method the
        dispatcher uses to move function outputs to consumer inputs.
        The source bytes are handed over as a memoryview, so the only
        copy is the one into the destination's buffer.
        """
        other.write(dst_offset, self.read_view(src_offset, length))

    # -- structured access ---------------------------------------------

    def store_sets(self, sets: Iterable[DataSet], offset: int = 0) -> int:
        """Record ``sets`` as stored at ``offset``; returns encoded size.

        Accounting-first: the committed extent grows by the exact
        serialized size (computed without building the blob) and the
        capacity check happens now, but the bytes themselves are only
        materialized if the region is later read.
        """
        self._check_alive()
        if offset < 0:
            raise ContextError("negative offset")
        if type(sets) is not list:
            sets = list(sets)
        size = serialized_size(sets)
        end = offset + size
        if end > self._capacity:
            raise ContextError(
                f"access at {end} exceeds context capacity {self._capacity}"
            )
        self._pending.append((offset, sets))
        if end > self._extent:
            self._extent = end
        return size

    def load_sets(self, offset: int = 0) -> list[DataSet]:
        """Zero-parse views of sets previously stored at ``offset``.

        Returns lazy set views over the context buffer: the call itself
        only reads the v2 footer (O(sets)); names decode and payload
        bytes are copied out on first touch.  The views alias the
        backing buffer and follow the same lifetime rule as
        :meth:`read_view` (valid until the next write or free).  A v1
        blob falls back to the eager strict parse.
        """
        from .lazy import parse_sets_lazy  # deferred: lazy imports this module

        self._check_alive()
        self._materialize()
        self._ensure(self._extent)
        return parse_sets_lazy(memoryview(self._buffer)[offset:])

    def __repr__(self) -> str:
        state = "freed" if self._freed else f"{self.committed}B committed"
        return f"MemoryContext({self.ident!r}, cap={self._capacity}, {state})"


def serialize_sets(sets: Iterable[DataSet]) -> bytes:
    """Encode sets into the length-prefixed on-context layout (v2).

    The body is followed by the footer offset table that makes the
    blob seekable.  The legacy scan-only v1 layout is read-only: the
    parsers still accept it, nothing emits it.
    """
    sets = list(sets)
    parts: list = [b""]  # header placeholder, patched once offsets are known
    offset = _HEADER2.size
    set_entries: list[tuple[int, int, int, int]] = []
    item_offsets: list[int] = []
    for data_set in sets:
        if getattr(data_set, "_body", None) is not None:
            spliced = _splice_lazy_set(data_set, offset)
            if spliced is not None:
                record, entry, shifted_offsets = spliced
                parts.append(record)
                offset += len(record)
                set_entries.append(entry)
                item_offsets.extend(shifted_offsets)
                continue
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


def _splice_lazy_set(data_set, offset: int):
    """Zero-copy re-encode of an unmodified lazy set view.

    A :class:`~repro.data.lazy.LazyDataSet` stored back as-is already
    *is* valid v2 body bytes — its name record, item count, and item
    records sit contiguously in the source blob.  Splice that byte
    range into the output (one slice, no per-item decode or payload
    materialization) and shift the source footer's item offsets by the
    relocation delta.  Returns ``(record, set_entry, item_offsets)``,
    or ``None`` when the view must take the slow path (renamed views:
    the name on the wire is not the name being stored).
    """
    body = data_set._body
    blob = body.blob
    start = body.set_offset
    ident = data_set._ident
    if ident is not None and ident != body.set_name():
        return None
    (name_length,) = _LENGTH.unpack_from(blob, start)
    end = start + 8 + name_length + data_set._wire  # name rec + count + items
    if end > body.limit:  # malformed footer: let the slow path diagnose
        return None
    offsets = body.offsets
    if offsets is None:
        offsets = body.offsets = struct.unpack_from(
            f"<{body.count}Q", body.offsets_blob, body.flat_start
        )
    delta = offset - start
    entry = (offset, body.count, data_set._payload_total, data_set._wire)
    return blob[start:end], entry, [o + delta for o in offsets]


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
            # Per-item wire bytes: name, key, key flag, length, payload.
            # Items are immutable and often shared across renamed sets,
            # so the sum is cached on the set and reused at every
            # downstream store (the chain hot path).
            wire = 0
            for item in data_set:
                wire += 4 + _name_length(item.ident)
                wire += 4 + _name_length(item.key if item.key is not None else "")
                wire += 8 + item.size  # key flag + payload length + payload
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
    """Strictly parse untrusted set data left behind by a function.

    Accepts ``bytes`` or a ``memoryview`` (the zero-copy path from
    :meth:`MemoryContext.load_sets`); only item payloads are copied out.
    Every length is validated before use; malformed or truncated data
    raises :class:`ContextError` rather than producing partial results.
    This is the reproduction's analogue of the 100-line Rust output
    parser whose small size §8 argues makes verification feasible.

    Both wire versions are accepted.  For a v2 blob the footer offset
    table is cross-validated against the full body scan (offsets,
    counts, payload/wire totals must all agree), which is exactly why
    this stays the validation/debug codec while
    :func:`repro.data.lazy.parse_sets_lazy` trusts the footer for the
    fast path.
    """
    if len(blob) >= 4 and bytes(blob[:4]) == _MAGIC2:
        return _parse_sets_v2(blob)
    cursor = _Cursor(blob)
    magic, set_count = _HEADER.unpack(cursor.take(_HEADER.size))
    if magic != _MAGIC:
        raise ContextError("bad magic: context does not contain set data")
    if set_count > _MAX_SETS:
        raise ContextError("set count exceeds limit")
    sets: list[DataSet] = []
    for _ in range(set_count):
        sets.append(_parse_one_set(cursor))
    return sets


def _parse_one_set(cursor: _Cursor) -> DataSet:
    """Strict body scan of one set record at the cursor (shared v1/v2)."""
    set_ident = cursor.name(allow_empty=False)
    item_count = cursor.u32()
    if item_count > _MAX_ITEMS_PER_SET:
        raise ContextError("item count exceeds limit")
    data_set = DataSet(set_ident)
    for _ in range(item_count):
        item_ident = cursor.name(allow_empty=False)
        key_text = cursor.name()
        has_key = cursor.u32()
        if has_key not in (0, 1):
            raise ContextError("invalid key flag")
        payload_length = cursor.u32()
        payload = bytes(cursor.take(payload_length))
        key: Optional[str] = key_text if has_key else None
        data_set.add(DataItem(item_ident, payload, key=key))
    return data_set


def _parse_footer(blob) -> "tuple[int, list[tuple[int, int, int, int]], list[list[int]]]":
    """Decode and bounds-check a v2 footer.

    Returns ``(set_count, set_entries, per_set_item_offsets)``.  Only
    structural validity is checked here (the lazy reader's trust
    boundary); :func:`parse_sets` additionally cross-checks every entry
    against a body scan.
    """
    if len(blob) < _HEADER2.size:
        raise ContextError("truncated context data")
    magic, set_count, footer_offset = _HEADER2.unpack(bytes(blob[: _HEADER2.size]))
    if magic != _MAGIC2:
        raise ContextError("bad magic: context does not contain v2 set data")
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


def _parse_sets_v2(blob) -> list[DataSet]:
    """Strict v2 parse: full body scan cross-validated against the footer."""
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
