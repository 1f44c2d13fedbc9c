"""Data-plane primitives: items, sets, memory contexts, virtual FS."""

from .context import (
    PAGE_SIZE,
    ContextError,
    MemoryContext,
    parse_sets,
    serialize_sets,
    serialized_size,
)
from .envelope import EnvelopeItem
from .items import (
    DataItem,
    DataSet,
    group_items_by_key,
    is_data_set,
    total_size,
)
from .lazy import LazyDataItem, LazyDataSet, parse_sets_lazy
from .vfs import VfsError, VirtualFile, VirtualFileSystem

__all__ = [
    "PAGE_SIZE",
    "ContextError",
    "MemoryContext",
    "parse_sets",
    "parse_sets_lazy",
    "serialize_sets",
    "serialized_size",
    "DataItem",
    "DataSet",
    "EnvelopeItem",
    "LazyDataItem",
    "LazyDataSet",
    "group_items_by_key",
    "is_data_set",
    "total_size",
    "VfsError",
    "VirtualFile",
    "VirtualFileSystem",
]
