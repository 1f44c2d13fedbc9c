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

import io
import json
import struct
from typing import Iterable, Optional

import numpy as np

__all__ = ["Table", "TableError"]

_MAGIC = b"COLT"
_NUMERIC_KINDS = ("i", "u", "f", "b")


class TableError(Exception):
    """Raised for malformed tables or schema mismatches."""


class _LazyStrings:
    """A validated, undecoded string column: row ``i`` is
    ``text[starts[i]:ends[i]]``.  Indexing gathers offsets; the object
    array is built once, by :meth:`values`."""

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
            self._values = np.asarray([text[lo:hi] for lo, hi in bounds], dtype=object)
        return self._values


class Table:
    """An immutable-by-convention named collection of columns."""

    def __init__(self, name: str, columns: dict[str, "np.ndarray | list"]):
        if not name:
            raise TableError("table name must be non-empty")
        self.name = name
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

    @staticmethod
    def _normalize(values) -> "np.ndarray | _LazyStrings":
        if isinstance(values, _LazyStrings):
            return values
        if isinstance(values, np.ndarray):
            if values.dtype.kind in _NUMERIC_KINDS:
                return values
            return np.asarray(values, dtype=object)
        values = list(values)
        if values and isinstance(values[0], str):
            return np.asarray(values, dtype=object)
        if values and isinstance(values[0], (int, np.integer)):
            return np.asarray(values, dtype=np.int64)
        if values and isinstance(values[0], (float, np.floating)):
            return np.asarray(values, dtype=np.float64)
        if not values:
            return np.asarray(values, dtype=np.int64)
        return np.asarray(values, dtype=object)

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

    @classmethod
    def from_rows(cls, name: str, rows: Iterable[dict]) -> "Table":
        rows = list(rows)
        if not rows:
            return cls(name, {})
        columns = {key: [row[key] for row in rows] for key in rows[0]}
        return cls(name, columns)

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
        return Table(
            self.name, {name: array[indices] for name, array in self._columns.items()}
        )

    def select(self, names: Iterable[str]) -> "Table":
        names = list(names)
        missing = [n for n in names if n not in self._columns]
        if missing:
            raise TableError(f"table {self.name!r} missing columns {missing}")
        return Table(self.name, {n: self._columns[n] for n in names})

    def rename(self, mapping: dict[str, str]) -> "Table":
        return Table(
            self.name,
            {mapping.get(name, name): array for name, array in self._columns.items()},
        )

    def with_name(self, name: str) -> "Table":
        return Table(name, dict(self._columns))

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the self-describing binary format."""
        header: dict = {"name": self.name, "rows": self._length, "columns": []}
        buffers: list[bytes] = []
        for column_name in self._columns:
            array = self.column(column_name)
            if array.dtype.kind in _NUMERIC_KINDS:
                data = np.ascontiguousarray(array).tobytes()
                header["columns"].append(
                    {"name": column_name, "kind": "numeric", "dtype": array.dtype.str}
                )
                buffers.append(data)
            else:
                encoded = [str(v).encode("utf-8") for v in array]
                offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
                np.cumsum([len(e) for e in encoded], out=offsets[1:])
                header["columns"].append({"name": column_name, "kind": "string"})
                buffers.append(offsets.tobytes())
                buffers.append(b"".join(encoded))
        header_blob = json.dumps(header).encode("utf-8")
        out = io.BytesIO()
        out.write(_MAGIC)
        out.write(struct.pack("<I", len(header_blob)))
        out.write(header_blob)
        for buffer in buffers:
            out.write(struct.pack("<Q", len(buffer)))
            out.write(buffer)
        return out.getvalue()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Table":
        """Parse and fully validate a blob (:class:`TableError` if
        malformed); string columns decode on first :meth:`column`."""
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
        if not all(isinstance(n, str) for n in names) or not isinstance(rows, int) or rows < 0:
            raise TableError("corrupt table header: bad name or row count")

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
            return np.frombuffer(view[position - length : position], dtype=dtype)

        columns: dict[str, "np.ndarray | _LazyStrings"] = {}
        for column_name, kind, dtype in fields:
            if kind == "numeric":
                try:
                    numeric = np.dtype(dtype) if isinstance(dtype, str) else None
                except (TypeError, ValueError, SyntaxError):  # numpy parses comma strings
                    numeric = None
                if numeric is None or numeric.kind not in _NUMERIC_KINDS:
                    raise TableError(f"column {column_name!r} has no numeric dtype: {dtype!r}")
                # Copied: the blob may be sandbox memory that is reused later.
                columns[column_name] = next_array(numeric, rows).copy()
            elif kind == "string":
                offsets = next_array(np.dtype("<i8"), rows + 1).copy()
                payload = next_array(np.dtype("u1"), None).tobytes()
                if offsets[0] != 0 or offsets[-1] > len(payload) or (offsets[1:] < offsets[:-1]).any():
                    raise TableError(f"string column {column_name!r} has invalid offsets")
                columns[column_name] = _decode_strings(payload, offsets)
            else:
                raise TableError(f"unknown column kind {kind!r}")
        if position != len(view):
            raise TableError(f"{len(view) - position} trailing bytes after the last buffer")
        return cls(name, columns)

    # -- misc --------------------------------------------------------------

    def concat(self, other: "Table") -> "Table":
        """Row-wise concatenation (schemas must match)."""
        if set(self.column_names) != set(other.column_names):
            raise TableError("concat requires identical schemas")
        return Table(
            self.name,
            {
                name: np.concatenate([self.column(name), other.column(name)])
                for name in self.column_names
            },
        )

    def __repr__(self) -> str:
        return f"Table({self.name!r}, {self._length} rows x {len(self._columns)} cols)"


def _decode_strings(payload: bytes, offsets: np.ndarray) -> "np.ndarray | _LazyStrings":
    """One whole-payload decode validates the UTF-8.  ASCII payloads
    (byte offsets == character offsets) stay lazy; anything else is
    decoded slice by slice, which also rejects offsets inside a character."""
    try:
        text = payload.decode("utf-8")
        if len(text) == len(payload):
            return _LazyStrings(text, offsets[:-1], offsets[1:])
        bounds = zip(offsets[:-1].tolist(), offsets[1:].tolist())
        return np.asarray([payload[lo:hi].decode("utf-8") for lo, hi in bounds], dtype=object)
    except UnicodeDecodeError as exc:
        raise TableError(f"string column is not valid UTF-8: {exc}") from exc


def _python_value(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value
