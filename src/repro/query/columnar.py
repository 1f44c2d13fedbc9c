"""Columnar tables — the data substrate of the query engine (§7.7).

The prototype ports Apache Arrow Acero operators to Dandelion; this
reproduction implements a compact Arrow-like columnar layer from
scratch: a :class:`Table` is a named set of equal-length columns,
numeric columns are numpy arrays, string columns are numpy object
arrays.  Tables serialize to a self-describing binary format (JSON
header + raw little-endian buffers; strings as UTF-8 with offsets) so
they can travel through Dandelion data items and the simulated object
store without pickle.  A parsed string column is validated at once and
decoded when :meth:`Table.column` first asks (docs/dataplane.md, COLT).
"""

from __future__ import annotations

import json
import struct
from itertools import repeat
from typing import Iterable, Optional

import numpy as np

from ..data.items import register_item_type

__all__ = ["Table", "TableError", "TableItem"]

_MAGIC = b"COLT"
_NUMERIC_KINDS = ("i", "u", "f", "b")


class TableError(Exception):
    """Raised for malformed tables or schema mismatches."""


class _LazyStrings:
    """A validated, undecoded string column: row ``i`` is
    ``text[starts[i]:ends[i]]``.  Indexing gathers offsets; the object
    array is built once, by :meth:`values`, read-only: holders share it."""

    __slots__ = ("_text", "_starts", "_ends", "_values")

    def __init__(self, text: str, starts: np.ndarray, ends: np.ndarray):
        self._text, self._starts, self._ends = text, starts, ends
        self._values: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, indices) -> "_LazyStrings":
        return _LazyStrings(self._text, self._starts[indices], self._ends[indices])

    def values(self) -> np.ndarray:
        if self._values is None:
            text, bounds = self._text, zip(self._starts.tolist(), self._ends.tolist())
            self._values = _read_only(np.asarray([text[lo:hi] for lo, hi in bounds], dtype=object))
        return self._values


class Table:
    """An immutable-by-convention named collection of columns.

    The public constructor checks what it is given (:meth:`_normalize`);
    operators build their results with :meth:`_of`, which adopts the
    arrays they have just produced without looking at them again."""

    __slots__ = ("name", "_columns", "_length", "__weakref__")

    def __init__(self, name: str, columns: dict[str, "np.ndarray | list"]):
        self.name = _checked_name(name)
        self._columns: dict[str, "np.ndarray | _LazyStrings"] = {}
        length: Optional[int] = None
        for column_name, values in columns.items():
            array = self._normalize(values)
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise TableError(
                    f"column {column_name!r} has {len(array)} rows, expected {length}"
                )
            self._columns[column_name] = array
        self._length = length or 0

    @classmethod
    def _of(cls, name: str, columns: dict[str, "np.ndarray | _LazyStrings"], length: int) -> "Table":
        """A table over columns an operator just built (arrays, or string
        columns still undecoded), adopted as they are: ``length`` rows
        each, and none if there are no columns."""
        table = object.__new__(cls)
        table.name, table._columns, table._length = name, columns, length if columns else 0
        return table

    @staticmethod
    def _normalize(values) -> np.ndarray:
        """One column given to the public constructor.  Lists of numbers
        become int64 (bools too), or float64 if any is a float; lists of
        str become object columns, as does anything else.  Mixing str with
        other values, an int outside int64 or a column that is not
        one-dimensional is a :class:`TableError`."""
        if isinstance(values, np.ndarray):
            array = values if values.dtype.kind in _NUMERIC_KINDS else values.astype(object, copy=False)
        else:
            values = list(values)
            if not values:
                return np.asarray(values, dtype=np.int64)
            first = values[0]
            if isinstance(first, str):
                if not all(map(isinstance, values, repeat(str))):
                    raise TableError("a column mixes str with other values")
                return np.asarray(values, dtype=object)
            if isinstance(first, (int, float, np.integer, np.floating)):
                return _numbers(values)
            if any(map(isinstance, values, repeat(str))):
                raise TableError("a column mixes str with other values")
            array = np.asarray(values, dtype=object)
        if array.ndim != 1:
            raise TableError(f"a column must be one-dimensional, not of shape {array.shape}")
        return array

    # -- shape ------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self._length

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        """The column's values; materialises an undecoded string column."""
        try:
            column = self._columns[name]
        except KeyError:
            raise TableError(f"table {self.name!r} has no column {name!r}") from None
        return column.values() if isinstance(column, _LazyStrings) else column

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self._length

    # -- construction helpers ------------------------------------------------

    def to_rows(self) -> list[dict]:
        names = self.column_names
        arrays = [self.column(n) for n in names]
        return [
            {name: _python_value(array[index]) for name, array in zip(names, arrays)}
            for index in range(self._length)
        ]

    def head(self, count: int) -> "Table":
        return self.take(np.arange(min(count, self._length)))

    def take(self, indices: np.ndarray) -> "Table":
        """Row subset by integer indices (or boolean mask)."""
        columns = {name: array[indices] for name, array in self._columns.items()}
        return Table._of(self.name, columns, len(next(iter(columns.values()), ())))

    def select(self, names: Iterable[str]) -> "Table":
        names = list(names)
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise TableError(f"table {self.name!r} missing columns {missing}")
        return Table._of(self.name, {n: self._columns[n] for n in names}, self._length)

    def rename(self, mapping: dict[str, str]) -> "Table":
        columns = {mapping.get(name, name): array for name, array in self._columns.items()}
        return Table._of(self.name, columns, self._length)

    def with_name(self, name: str) -> "Table":
        return Table._of(_checked_name(name), dict(self._columns), self._length)

    # -- serialization --------------------------------------------------------

    def _layout(self) -> tuple[bytes, list[np.ndarray]]:
        """The header blob and the buffers after it, contiguous arrays of
        ``nbytes`` each: the one layout of the format, which
        :meth:`to_bytes` writes and :class:`TableItem` measures."""
        columns, buffers = [], []
        for column_name in self._columns:
            array = self.column(column_name)
            if array.dtype.kind in _NUMERIC_KINDS:
                columns.append({"name": column_name, "kind": "numeric", "dtype": array.dtype.str})
                buffers.append(np.ascontiguousarray(array))
            else:
                # One encode; only non-ASCII text needs byte lengths per item.
                strings = array.tolist()
                try:
                    text = "".join(strings)
                except TypeError:  # not all str: each item's str()
                    strings = list(map(str, strings))
                    text = "".join(strings)
                payload = text.encode("utf-8")
                if len(payload) != len(text):
                    strings = [string.encode("utf-8") for string in strings]
                offsets = np.zeros(len(strings) + 1, dtype=np.int64)
                np.cumsum(np.fromiter(map(len, strings), np.int64, len(strings)), out=offsets[1:])
                columns.append({"name": column_name, "kind": "string"})
                buffers += (offsets, np.frombuffer(payload, np.uint8))
        header = {"name": self.name, "rows": self._length, "columns": columns}
        return json.dumps(header).encode("utf-8"), buffers

    def to_bytes(self) -> bytes:
        """Serialize to the self-describing binary format."""
        header, buffers = self._layout()
        parts = [_MAGIC, struct.pack("<I", len(header)), header]
        for buffer in buffers:
            parts += (struct.pack("<Q", buffer.nbytes), buffer)
        return b"".join(parts)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Table":
        """Parse and fully validate a blob (:class:`TableError` if
        malformed); string columns decode on first :meth:`column`.
        Numeric columns are read-only views of ``bytes``, copies of a
        buffer its owner may reuse (``bytearray``, ``memoryview``)."""
        copy = not isinstance(blob, bytes)
        view = memoryview(blob)
        if len(view) < 8 or bytes(view[:4]) != _MAGIC:
            raise TableError("not a serialized table (bad magic or short header)")
        (header_length,) = struct.unpack("<I", view[4:8])
        position = 8 + header_length
        try:
            header = json.loads(bytes(view[8:position]))
            name, rows = header["name"], header["rows"]
            fields = [(d["name"], d["kind"], d.get("dtype")) for d in header["columns"]]
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise TableError(f"corrupt table header: {exc!r}") from exc
        names = [name, *(field[0] for field in fields)]
        if not all(isinstance(n, str) for n in names) or type(rows) is not int or rows < 0:
            raise TableError("corrupt table header: bad name or row count")
        if len(set(names[1:])) != len(fields):
            raise TableError("corrupt table header: duplicate column name")

        def next_array(dtype: np.dtype, count: Optional[int]) -> np.ndarray:
            nonlocal position
            if position + 8 > len(view):
                raise TableError("truncated table data")
            (length,) = struct.unpack("<Q", view[position : position + 8])
            position += 8
            if position + length > len(view):
                raise TableError("truncated table buffer")
            if length % dtype.itemsize or count not in (None, length // dtype.itemsize):
                raise TableError(f"buffer of {length} bytes does not hold {count} x {dtype}")
            position += length
            array = np.frombuffer(view[position - length : position], dtype=dtype)
            return array.copy() if copy else array

        columns: dict[str, "np.ndarray | _LazyStrings"] = {}
        for column_name, kind, dtype in fields:
            if kind == "numeric":
                try:
                    numeric = np.dtype(dtype) if isinstance(dtype, str) else None
                except (TypeError, ValueError, SyntaxError):  # numpy parses comma strings
                    numeric = None
                if numeric is None or numeric.kind not in _NUMERIC_KINDS:
                    raise TableError(f"column {column_name!r} has no numeric dtype: {dtype!r}")
                columns[column_name] = next_array(numeric, rows)
            elif kind == "string":
                offsets = next_array(np.dtype("<i8"), rows + 1)
                payload = next_array(np.dtype("u1"), None).tobytes()
                if offsets[0] != 0 or offsets[-1] > len(payload) or (offsets[1:] < offsets[:-1]).any():
                    raise TableError(f"string column {column_name!r} has invalid offsets")
                columns[column_name] = _decode_strings(payload, offsets)
            else:
                raise TableError(f"unknown column kind {kind!r}")
        if position != len(view):
            raise TableError(f"{len(view) - position} trailing bytes after the last buffer")
        return cls._of(_checked_name(name), columns, rows)

    # -- misc --------------------------------------------------------------

    def concat(self, *others: "Table") -> "Table":
        """Row-wise concatenation of this table and ``others``, in one copy
        per column (schemas must match)."""
        names = self.column_names
        if any(set(other.column_names) != set(names) for other in others):
            raise TableError("concat requires identical schemas")
        tables = (self, *others)
        columns = {name: np.concatenate([table.column(name) for table in tables]) for name in names}
        return Table._of(self.name, columns, sum(len(table) for table in tables))

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self._length} rows x {len(self._columns)} cols)"


class TableItem:
    """A :class:`~repro.data.items.DataItem` that is an unwritten table:
    ``table`` by reference, its columns made read-only so every reader
    may share it, and ``size``, exactly ``len(table.to_bytes())``.  The
    bytes are built only if ``.data`` is read."""

    __slots__ = ("ident", "key", "table", "size", "_data", "__weakref__")

    def __init__(self, ident: str, table: Table, key: Optional[str] = None):
        for column in table._columns.values():
            if isinstance(column, np.ndarray):
                _read_only(column)
        header, buffers = table._layout()
        self.ident, self.key, self.table, self._data = ident, key, table, None
        self.size = len(_MAGIC) + 4 + len(header) + sum(8 + buffer.nbytes for buffer in buffers)

    @property
    def data(self) -> bytes:
        """The table's bytes, built on first access."""
        if self._data is None:
            self._data = self.table.to_bytes()
        return self._data


register_item_type(TableItem)


def _checked_name(name: str) -> str:
    if not name:
        raise TableError("table name must be non-empty")
    return name


def _numbers(values: list) -> np.ndarray:
    """A list led by a number: int64, or float64 if any value is a float."""
    try:
        array = np.asarray(values)
    except ValueError as exc:  # a sequence among the numbers
        raise TableError(f"a column must be one-dimensional: {exc}") from None
    kind = array.dtype.kind
    if kind == "U":
        raise TableError("a column mixes str with other values")
    # NumPy also makes float64 of ints that no one integer dtype holds.
    if kind == "f" and any(isinstance(value, (float, np.floating)) for value in values):
        return array.astype(np.float64, copy=False)
    if kind in "biu" and (kind != "u" or array.max() <= np.iinfo(np.int64).max):
        return array.astype(np.int64, copy=False)
    raise TableError("a column holds a value that is neither a float nor an int in int64")


def _decode_strings(payload: bytes, offsets: np.ndarray) -> "np.ndarray | _LazyStrings":
    """One whole-payload decode validates the UTF-8.  ASCII payloads
    (byte offsets == character offsets) stay lazy; anything else is
    decoded slice by slice, which also rejects offsets inside a character."""
    try:
        text = payload.decode("utf-8")
        if len(text) == len(payload):
            return _LazyStrings(text, offsets[:-1], offsets[1:])
        bounds = zip(offsets[:-1].tolist(), offsets[1:].tolist())
        return _read_only(np.asarray([payload[lo:hi].decode("utf-8") for lo, hi in bounds], dtype=object))
    except UnicodeDecodeError as exc:
        raise TableError(f"string column is not valid UTF-8: {exc}") from exc


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _python_value(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value
