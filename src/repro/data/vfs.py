"""In-memory virtual filesystem — the hlibc/hlibc++ interface (§4.1).

Compute functions cannot issue system calls; instead Dandelion's custom
libc exposes "a userspace in-memory virtual filesystem [that]
represents function input sets and output sets as folders, with items
as files within these folders".  Functions read inputs and write
outputs as ordinary file operations; when the function exits, "hlibc
automatically adds all files in folders that are output sets as output
items".

This module reproduces that interface: a :class:`VirtualFileSystem` is
constructed from the function's input sets, mounted at ``/in/<set>``,
and collects anything written under ``/out/<set>`` into output sets.
"""

from __future__ import annotations

import io
import posixpath
from typing import Optional

from .items import DataItem, DataSet, is_data_item

__all__ = ["VirtualFileSystem", "VfsError", "VirtualFile"]

_IN_ROOT = "/in"
_OUT_ROOT = "/out"


class VfsError(OSError):
    """Filesystem-level error (missing file, bad path, read-only...)."""


class VirtualFile(io.BytesIO):
    """A writable in-memory file that publishes its bytes on close."""

    def __init__(self, vfs: "VirtualFileSystem", path: str, initial: bytes = b"", key: Optional[str] = None):
        super().__init__(initial)
        if initial:
            self.seek(0, io.SEEK_END)
        self._vfs = vfs
        self._path = path
        self.key = key

    def close(self) -> None:
        if not self.closed:
            self._vfs._publish(self._path, self.getvalue(), self.key)
        super().close()


def _normalize(path: str) -> str:
    if not path.startswith("/"):
        raise VfsError(f"paths must be absolute, got {path!r}")
    clean = posixpath.normpath(path)
    if clean.startswith("/.."):
        raise VfsError(f"path escapes the filesystem root: {path!r}")
    return clean


# Raw item path -> (clean, root, set, item): each path a function names
# is parsed once per process.  Cleared when full; a path that fails to
# parse is never stored, so it raises on every call.
_ITEM_PATH_LIMIT = 4096
_item_paths: dict[str, tuple[str, str, str, str]] = {}


def _item_path(path: str) -> tuple[str, str, str, str]:
    parsed = _item_paths.get(path)
    if parsed is None:
        clean = _normalize(path)
        parts = [p for p in clean.split("/") if p]
        if len(parts) != 3:
            raise VfsError(f"expected /in|/out/<set>/<item>, got {clean!r}")
        parsed = (clean, "/" + parts[0], parts[1], parts[2])
        if len(_item_paths) >= _ITEM_PATH_LIMIT:
            _item_paths.clear()
        _item_paths[path] = parsed
    return parsed


class VirtualFileSystem:
    """The per-invocation filesystem view a compute function sees.

    Input sets appear read-only under ``/in/<set>/<item>``.  Output
    folders under ``/out/<set>/`` accept writes; on
    :meth:`collect_outputs`, every file in a declared output-set folder
    becomes an output item.
    """

    def __init__(self, input_sets: list[DataSet], output_set_names: list[str]):
        self._inputs: dict[str, DataSet] = {}
        for data_set in input_sets:
            if data_set.ident in self._inputs:
                raise VfsError(f"duplicate input set {data_set.ident!r}")
            self._inputs[data_set.ident] = data_set
        self._output_names = list(output_set_names)
        if len(set(self._output_names)) != len(self._output_names):
            raise VfsError("duplicate output set names")
        # path -> (bytes or an item, key); plus a per-set item-name index
        # so listdir/collect_outputs avoid rescanning every written path.
        self._output_files: dict[str, tuple[object, Optional[str]]] = {}
        self._outputs_by_set: dict[str, dict[str, str]] = {
            name: {} for name in self._output_names
        }

    # -- reading ----------------------------------------------------------

    def open(self, path: str, mode: str = "r", key: Optional[str] = None):
        """Open a file.

        ``r``/``rb`` read an input (or previously written output) item;
        ``w``/``wb`` create a file in an output folder; ``a``/``ab``
        append.  Text modes decode/encode UTF-8.  ``key`` tags the
        written item with a grouping key.
        """
        binary = mode.endswith("b")
        base_mode = mode.rstrip("b")
        if base_mode == "r":
            data = self.read_bytes(path)
            return io.BytesIO(data) if binary else io.StringIO(data.decode("utf-8"))
        if base_mode in ("w", "a"):
            clean = self._writable(path)
            initial = self._written(clean) if base_mode == "a" and clean in self._output_files else b""
            raw = VirtualFile(self, clean, initial, key=key)
            return raw if binary else _TextWriter(raw)
        raise VfsError(f"unsupported mode {mode!r}")

    def read_bytes(self, path: str) -> bytes:
        """Read a whole file as bytes."""
        clean, root, set_name, item_name = _item_path(path)
        if root == _IN_ROOT:
            data_set = self._inputs.get(set_name)
            if data_set is None:
                raise VfsError(f"no input set {set_name!r}")
            try:
                return data_set.item(item_name).data
            except KeyError:
                raise VfsError(f"no file {clean!r}") from None
        if root == _OUT_ROOT:
            if clean in self._output_files:
                return self._written(clean)
            raise VfsError(f"no file {clean!r}")
        raise VfsError(f"unknown root {root!r}")

    def read_text(self, path: str, encoding: str = "utf-8") -> str:
        return self.read_bytes(path).decode(encoding)

    def input_items(self, set_name: str) -> list:
        """An input set's own items (not copies), in ``listdir`` order."""
        data_set = self._inputs.get(set_name)
        if data_set is None:
            raise VfsError(f"no directory '{_IN_ROOT}/{set_name}'")
        return sorted(data_set, key=lambda item: item.ident)

    def write_bytes(self, path: str, data: bytes, key: Optional[str] = None) -> None:
        """Write a whole file in one call.

        Fast path for the common SDK idiom: validates the path like
        ``open(..., "wb")`` would, then publishes directly without the
        intermediate BytesIO buffer.
        """
        self._publish(self._writable(path), bytes(data), key)

    def write_item(self, path: str, item) -> None:
        """Publish ``item`` (a registered item type named as the file) at
        ``path`` by reference, with its own key: nothing is copied or built."""
        clean = self._writable(path)
        if not is_data_item(item) or _item_path(clean)[3] != item.ident:
            raise VfsError(f"cannot publish a {type(item).__name__} as {clean!r}: not an item of that name")
        self._publish(clean, item, item.key)

    def _writable(self, path: str) -> str:
        """The clean path of ``path``, a file in a declared output set."""
        clean, root, set_name, _item = _item_path(path)
        if root != _OUT_ROOT:
            raise VfsError(f"cannot write outside {_OUT_ROOT}: {path!r}")
        if set_name not in self._output_names:
            raise VfsError(f"{set_name!r} is not a declared output set")
        return clean

    def write_text(self, path: str, text: str, key: Optional[str] = None, encoding: str = "utf-8") -> None:
        self.write_bytes(path, text.encode(encoding), key=key)

    def listdir(self, path: str) -> list[str]:
        """List a directory (roots, set folders, or item names)."""
        clean = _normalize(path)
        if clean == "/":
            return ["in", "out"]
        if clean == _IN_ROOT:
            return sorted(self._inputs)
        if clean == _OUT_ROOT:
            return sorted(self._output_names)
        parts = [p for p in clean.split("/") if p]
        if len(parts) == 2:
            root = "/" + parts[0]
            set_name = parts[1]
            if root == _IN_ROOT:
                return [item.ident for item in self.input_items(set_name)]
            if root == _OUT_ROOT:
                by_set = self._outputs_by_set.get(set_name)
                if by_set is None:
                    raise VfsError(f"no directory {clean!r}")
                return sorted(by_set)
        raise VfsError(f"no directory {clean!r}")

    def exists(self, path: str) -> bool:
        try:
            self.read_bytes(path)
            return True
        except VfsError:
            try:
                self.listdir(path)
                return True
            except VfsError:
                return False

    # -- output collection -----------------------------------------------

    def _written(self, clean: str) -> bytes:
        data = self._output_files[clean][0]
        return data if isinstance(data, bytes) else data.data

    def _publish(self, path: str, data, key: Optional[str]) -> None:
        self._output_files[path] = (data, key)
        _clean, _root, set_name, item_name = _item_path(path)
        self._outputs_by_set[set_name][item_name] = path

    def collect_outputs(self) -> list[DataSet]:
        """Build the function's output sets from files written to /out.

        Called by the harness after the function returns — the hlibc
        behaviour of automatically turning output-folder files into
        output items.  Declared output sets with no files yield empty
        sets (the declared shape is preserved).
        """
        outputs: list[DataSet] = []
        for set_name in self._output_names:
            data_set = DataSet(set_name)
            by_set = self._outputs_by_set[set_name]
            for item_name in sorted(by_set):
                data, key = self._output_files[by_set[item_name]]
                data_set.add(DataItem(item_name, data, key=key) if isinstance(data, bytes) else data)
            outputs.append(data_set)
        return outputs


class _TextWriter:
    """Text-mode wrapper around a VirtualFile."""

    def __init__(self, raw: VirtualFile):
        self._raw = raw

    def write(self, text: str) -> int:
        return self._raw.write(text.encode("utf-8"))

    def close(self) -> None:
        self._raw.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
