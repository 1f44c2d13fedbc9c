"""SDK helpers for writing Dandelion compute functions (§4.2).

The prototype ships C/C++ SDKs (and a CPython build) that compile user
code against hlibc; this module is the Python-native equivalent: a
decorator that turns a plain function into a registered-ready
:class:`FunctionBinary`, plus convenience wrappers over the virtual
filesystem for the common "read all items of a set / write items to a
set" patterns, and helpers for formatting the HTTP requests consumed by
communication functions.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..composition.registry import (
    DEFAULT_BINARY_SIZE,
    DEFAULT_MEMORY_LIMIT,
    FunctionBinary,
)
from ..data.envelope import read_envelope, write_envelope
from ..data.items import DataItem
from ..data.vfs import VirtualFileSystem

__all__ = [
    "compute_function",
    "parse_http_response_item",
    "read_items",
    "read_all_bytes",
    "write_item",
    "format_http_request",
    "parse_http_request_item",
]


def compute_function(
    name: Optional[str] = None,
    memory_limit: int = DEFAULT_MEMORY_LIMIT,
    binary_size: int = DEFAULT_BINARY_SIZE,
    compute_cost: "Optional[float | Callable[[int], float]]" = None,
    language: str = "python",
) -> Callable[[Callable], FunctionBinary]:
    """Decorator producing a :class:`FunctionBinary` from a callable::

        @compute_function(memory_limit=1 << 20)
        def double(vfs):
            value = int(vfs.read_text("/in/data/value"))
            vfs.write_text("/out/result/value", str(2 * value))

    The callable receives the invocation's
    :class:`~repro.data.vfs.VirtualFileSystem`.
    """

    def decorator(func: Callable) -> FunctionBinary:
        return FunctionBinary(
            name=name or func.__name__,
            entry_point=func,
            memory_limit=memory_limit,
            binary_size=binary_size,
            compute_cost=compute_cost,
            language=language,
        )

    return decorator


def read_items(vfs: VirtualFileSystem, set_name: str) -> list[DataItem]:
    """An input set's own items (name, key, payload built only if
    ``.data`` is read), sorted by name."""
    return vfs.input_items(set_name)


def read_all_bytes(vfs: VirtualFileSystem, set_name: str) -> bytes:
    """Concatenated payloads of every item in an input set."""
    return b"".join(item.data for item in read_items(vfs, set_name))


def write_item(
    vfs: VirtualFileSystem,
    set_name: str,
    item_name: str,
    data: bytes,
    key: Optional[str] = None,
) -> None:
    """Write one output item (bytes) into an output set folder."""
    vfs.write_bytes(f"/out/{set_name}/{item_name}", data, key=key)


def format_http_request(
    method: str,
    url: str,
    body: bytes = b"",
    headers: Optional[dict[str, str]] = None,
) -> bytes:
    """Serialise an HTTP request item for a communication function.

    Communication functions consume request items in this JSON
    envelope; the engine re-validates everything (§6.3), so the format
    is a convenience, not a trust boundary.
    """
    fields = {"method": method, "url": url, "headers": headers or {}}
    return write_envelope(fields, "body_hex", body)


def parse_http_request_item(data: bytes) -> dict:
    """Decode a request envelope (used by the communication engine)."""
    fields = {"method": str, "url": str, "headers": dict, "body_hex": bytes}
    return read_envelope(data, "body_hex", fields, "request envelope")


def parse_http_response_item(item) -> dict:
    """Decode a response envelope produced by a communication function.

    Takes the response item (fields and body are handed over by
    reference: no JSON, no hex) or its raw bytes.  Returns a dict with
    ``status`` (int), ``body`` (bytes) and optionally ``error``/
    ``reason`` strings.
    """
    return read_envelope(item, "body_hex", {"status": int}, "response envelope")
