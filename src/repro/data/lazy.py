"""Zero-parse lazy views over wire-format set data.

:func:`parse_sets_lazy` is the fast reader of the layout
:func:`~repro.data.context.serialize_sets` writes: instead of eagerly
decoding every record the way :func:`~repro.data.context.parse_sets`
does, it reads only the footer offset table — O(sets) work — and hands
back :class:`LazyDataSet` views that decode names and copy payload
bytes out of the underlying buffer on first touch, caching per entry.
A set that is indexed but never inspected therefore costs O(1); a
fully consumed set costs the same as the eager parse, paid
incrementally.

Validation moves with the work: the magic and footer are checked up
front (offsets and counts can never make the trusted side read out of
bounds), while per-record strictness — name UTF-8/emptiness, key
flags, payload bounds — is enforced at the same touch that would
decode the record, raising the same :class:`~repro.data.context.ContextError`
the strict codec raises at parse time.  The strict parser remains the
validation/debug codec and additionally cross-checks the footer
against a full body scan.

The views alias the source buffer until a payload is copied out, so
the buffer must not change while they are in use; they are read-only.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from .context import (
    _HEADER2,
    _MAX_ITEMS_PER_SET,
    _MAX_NAME_LENGTH,
    _MAX_SETS,
    _SET_ENTRY,
    ContextError,
    _check_magic,
)
from .items import register_item_type, register_set_type

__all__ = ["parse_sets_lazy", "LazyDataSet", "LazyDataItem"]

_FLAG_LEN = struct.Struct("<II")  # key flag, payload length


def _read_name(blob, position: int, limit: int, allow_empty: bool = True):
    """Decode one length-prefixed name at ``position``; bound by ``limit``.

    Returns ``(text, next_position)``.  Same strictness as the eager
    cursor: length cap, UTF-8 validity, optional non-emptiness.
    """
    if position + 4 > limit:
        raise ContextError("truncated context data")
    (length,) = struct.unpack_from("<I", blob, position)
    if length > _MAX_NAME_LENGTH:
        raise ContextError("name too long")
    position += 4
    if position + length > limit:
        raise ContextError("truncated context data")
    try:
        text = bytes(blob[position : position + length]).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ContextError("name is not valid UTF-8") from exc
    if not text and not allow_empty:
        raise ContextError("empty name")
    return text, position + length


class LazyDataItem:
    """A :class:`~repro.data.items.DataItem` view over wire bytes.

    The name and key are decoded when the item is first reached through
    its set; the payload stays in the source buffer until ``.data`` is
    read, then is copied out once and cached.  ``size`` comes from the
    record header, so accounting never materializes the payload.
    """

    __slots__ = ("ident", "key", "_blob", "_data_offset", "_data_length", "_data", "__weakref__")

    def __init__(self, ident: str, key: Optional[str], blob, data_offset: int, data_length: int):
        self.ident = ident
        self.key = key
        self._blob = blob
        self._data_offset = data_offset
        self._data_length = data_length
        self._data: Optional[bytes] = None

    @property
    def data(self) -> bytes:
        """Payload bytes, copied out of the buffer on first access."""
        data = self._data
        if data is None:
            start = self._data_offset
            data = bytes(self._blob[start : start + self._data_length])
            self._data = data
            self._blob = None  # drop the buffer alias once materialized
        return data

    @property
    def size(self) -> int:
        """Payload size in bytes (from the header; never materializes)."""
        return self._data_length

    def text(self, encoding: str = "utf-8") -> str:
        """Decode the payload as text (convenience for examples/tests)."""
        return self.data.decode(encoding)

    def __repr__(self) -> str:
        state = "materialized" if self._data is not None else "lazy"
        return f"LazyDataItem({self.ident!r}, {self._data_length} bytes, {state})"


class _SetBody:
    """Shared decode state for one set record (shared across renames).

    Holds the buffer, the set's footer slice of the item-offset array,
    and the touch caches: ``entries[i]`` is the :class:`LazyDataItem`
    for item *i* once reached, ``index`` the name lookup table once
    ``item()`` has been used.  Renamed views share the body, so an item
    materialized through one name is materialized for all of them.
    """

    __slots__ = (
        "blob", "limit", "set_offset", "count",
        "offsets_blob", "flat_start", "offsets", "entries", "index",
    )

    def __init__(self, blob, limit, set_offset, count, offsets_blob, flat_start):
        self.blob = blob
        self.limit = limit  # footer offset: records must end before it
        self.set_offset = set_offset
        self.count = count
        self.offsets_blob = offsets_blob
        self.flat_start = flat_start
        self.offsets = None  # tuple[int, ...], unpacked on first item touch
        self.entries = None  # list[LazyDataItem | None], allocated on first touch
        self.index = None  # dict[str, LazyDataItem], built on first item() lookup

    def set_name(self) -> str:
        """Decode the set name, cross-checking the body item count."""
        name, position = _read_name(self.blob, self.set_offset, self.limit, allow_empty=False)
        if position + 4 > self.limit:
            raise ContextError("truncated context data")
        (body_count,) = struct.unpack_from("<I", self.blob, position)
        if body_count != self.count:
            raise ContextError("footer item count disagrees with body")
        return name

    def item_at(self, index: int) -> LazyDataItem:
        """The item at positional ``index``, parsing its header on first touch."""
        entries = self.entries
        if entries is None:
            entries = self.entries = [None] * self.count
        entry = entries[index]
        if entry is not None:
            return entry
        offsets = self.offsets
        if offsets is None:
            offsets = self.offsets = struct.unpack_from(
                f"<{self.count}Q", self.offsets_blob, self.flat_start
            )
        offset = offsets[index]
        if not _HEADER2.size <= offset < self.limit:
            raise ContextError("item offset out of bounds")
        ident, position = _read_name(self.blob, offset, self.limit, allow_empty=False)
        key_text, position = _read_name(self.blob, position, self.limit)
        if position + 8 > self.limit:
            raise ContextError("truncated context data")
        has_key, data_length = _FLAG_LEN.unpack_from(self.blob, position)
        if has_key not in (0, 1):
            raise ContextError("invalid key flag")
        data_offset = position + 8
        if data_offset + data_length > self.limit:
            raise ContextError("truncated context data")
        entry = LazyDataItem(
            ident, key_text if has_key else None, self.blob, data_offset, data_length
        )
        entries[index] = entry
        return entry


class LazyDataSet:
    """A :class:`~repro.data.items.DataSet` view over wire bytes.

    Implements the full read surface (``__iter__``, ``__len__``,
    ``item()``, ``size``, ``ident``)
    without decoding anything up front: construction is O(1), ``size``
    and ``len`` come from the footer, and ``renamed`` shares the decode
    caches.  The view is read-only — ``add`` raises.
    """

    __slots__ = ("_body", "_ident", "_payload_total", "_wire")

    def __init__(self, body: _SetBody, payload_total: int, wire_total: int, ident: Optional[str] = None):
        self._body = body
        self._ident = ident  # decoded (or renamed-to) name; None until touched
        self._payload_total = payload_total
        # Body wire bytes from the footer: lets serialized_size() charge
        # a re-store of this set in O(1) without touching any item.
        self._wire = wire_total

    @property
    def ident(self) -> str:
        ident = self._ident
        if ident is None:
            ident = self._ident = self._body.set_name()
        return ident

    def __len__(self) -> int:
        return self._body.count

    def __iter__(self) -> Iterator[LazyDataItem]:
        body = self._body
        for index in range(body.count):
            yield body.item_at(index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        count = self._body.count
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("set item index out of range")
        return self._body.item_at(index)

    @property
    def items(self) -> list[LazyDataItem]:
        return list(self)

    def item(self, ident: str) -> LazyDataItem:
        """Look an item up by name (O(items) once, then O(1))."""
        index = self._index()
        try:
            return index[ident]
        except KeyError:
            raise KeyError(f"no item {ident!r} in set {self.ident!r}") from None

    def _index(self) -> dict:
        index = self._body.index
        if index is None:
            index = {}
            for entry in self:
                if entry.ident in index:
                    raise ContextError(
                        f"duplicate item ident {entry.ident!r} in set {self.ident!r}"
                    )
                index[entry.ident] = entry
            self._body.index = index
        return index

    def __contains__(self, ident: str) -> bool:
        return ident in self._index()

    @property
    def size(self) -> int:
        """Total payload bytes (from the footer; O(1), never decodes)."""
        return self._payload_total

    def renamed(self, ident: str) -> "LazyDataSet":
        """A view of the same record under a new name (O(1), shares caches)."""
        if ident == self.ident:
            return self
        if not ident:
            raise ValueError("set ident must be non-empty")
        return LazyDataSet(self._body, self._payload_total, self._wire, ident=ident)

    def add(self, item) -> None:
        raise TypeError("lazy set views are read-only; copy into a DataSet to modify")

    def __repr__(self) -> str:
        try:
            ident = self.ident
        except ContextError:
            ident = "<malformed>"
        return f"LazyDataSet({ident!r}, {self._body.count} items, {self._payload_total} bytes)"


def parse_sets_lazy(blob) -> "list[LazyDataSet]":
    """Index a wire blob into lazy set views without decoding records.

    This reads the header and footer only — O(sets) work, independent
    of item count or payload bytes; per-item offsets stay packed until a
    set is first touched.  A bad magic and malformed headers and footers
    raise :class:`~repro.data.context.ContextError` here; malformed
    records raise on touch.
    """
    _check_magic(blob)
    if len(blob) < _HEADER2.size:
        raise ContextError("truncated context data")
    _, set_count, footer_offset = _HEADER2.unpack_from(blob, 0)
    if set_count > _MAX_SETS:
        raise ContextError("set count exceeds limit")
    footer_end = footer_offset + set_count * _SET_ENTRY.size
    if footer_offset < _HEADER2.size or footer_end > len(blob):
        raise ContextError("footer offset out of bounds")
    sets: list[LazyDataSet] = []
    # The flat item-offset array lives right after the set entries; each
    # body records its byte position into it and unpacks on first touch.
    flat_position = footer_end
    position = footer_offset
    for _ in range(set_count):
        set_offset, item_count, payload_total, wire_total = _SET_ENTRY.unpack_from(
            blob, position
        )
        position += _SET_ENTRY.size
        if item_count > _MAX_ITEMS_PER_SET:
            raise ContextError("item count exceeds limit")
        if not _HEADER2.size <= set_offset < footer_offset:
            raise ContextError("set offset out of bounds")
        if payload_total > wire_total or wire_total > footer_offset:
            raise ContextError("inconsistent footer byte totals")
        body = _SetBody(blob, footer_offset, set_offset, item_count, blob, flat_position)
        sets.append(LazyDataSet(body, payload_total, wire_total))
        flat_position += item_count * 8
    if flat_position > len(blob):
        raise ContextError("truncated footer item offsets")
    return sets


register_item_type(LazyDataItem)
register_set_type(LazyDataSet)
