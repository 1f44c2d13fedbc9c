"""Data items and data sets — the values that flow along composition edges.

Dandelion functions consume a declared list of *input sets* and produce
a declared list of *output sets* (§4.1).  A set is an ordered, named
collection of *items*; an item is a named blob of bytes plus an
optional grouping *key* ("Keys are set by the user when formatting
output data and are only used for grouping").
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

__all__ = [
    "DataItem",
    "DataSet",
    "total_size",
    "group_items_by_key",
    "is_data_set",
    "renamed_item",
    "register_item_type",
    "register_set_type",
]


@dataclass(frozen=True)
class DataItem:
    """One named blob flowing through a composition.

    ``ident`` is the item name (the file name in the virtual
    filesystem view), ``data`` the payload, and ``key`` the optional
    grouping key used by ``key``-distributed edges.
    """

    ident: str
    data: bytes
    key: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.data, (bytes, bytearray, memoryview)):
            raise TypeError(f"item data must be bytes-like, got {type(self.data).__name__}")
        object.__setattr__(self, "data", bytes(self.data))
        if not self.ident:
            raise ValueError("item ident must be non-empty")

    @property
    def size(self) -> int:
        """Payload size in bytes."""
        return len(self.data)

    def text(self, encoding: str = "utf-8") -> str:
        """Decode the payload as text (convenience for examples/tests)."""
        return self.data.decode(encoding)


# Concrete types accepted wherever a DataItem / DataSet flows.  The lazy
# wire-format views (repro.data.lazy) register themselves here so the
# eager containers and every consumer accept them interchangeably
# without the data layer importing its own submodule back.
_ITEM_TYPES: tuple = (DataItem,)
_SET_TYPES: tuple = ()  # DataSet is appended once the class exists


def register_item_type(cls) -> None:
    """Register an additional class usable as a set member."""
    global _ITEM_TYPES
    if cls not in _ITEM_TYPES:
        _ITEM_TYPES = _ITEM_TYPES + (cls,)


def register_set_type(cls) -> None:
    """Register an additional class usable as a data set."""
    global _SET_TYPES
    if cls not in _SET_TYPES:
        _SET_TYPES = _SET_TYPES + (cls,)


def renamed_item(item, ident: str):
    """``item`` (any registered type) under a new name.  A shallow copy:
    the payload is shared, and a lazy one is neither read nor built."""
    clone = copy.copy(item)
    object.__setattr__(clone, "ident", ident)  # DataItem is frozen
    return clone


def is_data_set(value) -> bool:
    """Whether ``value`` is a data set (eager or a registered view)."""
    return isinstance(value, _SET_TYPES)


def group_items_by_key(items: Iterable) -> "dict[Optional[str], list]":
    """Bucket items by their grouping key, first-appearance ordered.

    Single pass: this is the shared engine behind ``keys()`` /
    ``grouped_by_key()`` on both the eager and lazy sets, and the
    dispatcher's ``key``-distribution expansion — all of which were
    previously O(items x keys) membership scans.
    """
    groups: dict[Optional[str], list] = {}
    for item in items:
        bucket = groups.get(item.key)
        if bucket is None:
            groups[item.key] = [item]
        else:
            bucket.append(item)
    return groups


class DataSet:
    """A named, ordered collection of :class:`DataItem`.

    Sets are the unit a composition edge transports: an edge says
    "output set X of function A becomes input set Y of function B".
    """

    __slots__ = ("ident", "_items", "_index", "_wire")

    def __init__(self, ident: str, items: Iterable[DataItem] = ()):
        if not ident:
            raise ValueError("set ident must be non-empty")
        self.ident = ident
        self._items: list[DataItem] = []
        self._index: dict[str, DataItem] = {}
        # Cached per-item wire size (see context.serialized_size);
        # invalidated whenever the item list changes.
        self._wire: Optional[int] = None
        for item in items:
            self.add(item)

    def add(self, item: DataItem) -> None:
        """Append an item (idents inside one set must be unique).

        Accepts any registered item type; a lazy item added here keeps
        its deferred payload (grouping a lazy set never copies data).
        """
        if not isinstance(item, _ITEM_TYPES):
            raise TypeError(f"expected DataItem, got {type(item).__name__}")
        if item.ident in self._index:
            raise ValueError(f"duplicate item ident {item.ident!r} in set {self.ident!r}")
        self._index[item.ident] = item
        self._items.append(item)
        self._wire = None

    def __contains__(self, ident: str) -> bool:
        """Whether an item with this ident is in the set (O(1))."""
        return ident in self._index

    @classmethod
    def renamed(cls, source: "DataSet", ident: str) -> "DataSet":
        """A set with ``source``'s items under a new name.

        Items of an existing set are already validated and unique, so
        this skips the per-item checks of the regular constructor.
        Non-eager sources (the lazy wire-format views) rename through
        their own O(1) ``renamed`` method instead of being copied.
        """
        if source.ident == ident:
            return source
        if not isinstance(source, cls):
            return source.renamed(ident)
        new = cls.__new__(cls)
        if not ident:
            raise ValueError("set ident must be non-empty")
        new.ident = ident
        new._items = list(source._items)
        new._index = dict(source._index)
        new._wire = source._wire
        return new

    def __iter__(self) -> Iterator[DataItem]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> DataItem:
        return self._items[index]

    @property
    def items(self) -> list[DataItem]:
        return list(self._items)

    def item(self, ident: str) -> DataItem:
        """Look an item up by name (O(1))."""
        try:
            return self._index[ident]
        except KeyError:
            raise KeyError(f"no item {ident!r} in set {self.ident!r}") from None

    @property
    def size(self) -> int:
        """Total payload bytes across all items."""
        return sum(item.size for item in self._items)

    def keys(self) -> list[Optional[str]]:
        """Distinct item keys in first-appearance order (O(items))."""
        return list(dict.fromkeys(item.key for item in self._items))

    def grouped_by_key(self) -> "list[DataSet]":
        """Split into per-key sets (for ``key``-distributed edges).

        Single pass over the items; previously this rescanned the whole
        set once per distinct key.
        """
        return [
            DataSet(self.ident, bucket)
            for bucket in group_items_by_key(self._items).values()
        ]

    def __repr__(self) -> str:
        return f"DataSet({self.ident!r}, {len(self._items)} items, {self.size} bytes)"


def total_size(sets: Iterable[DataSet]) -> int:
    """Total payload bytes across several sets."""
    return sum(s.size for s in sets)


register_set_type(DataSet)
