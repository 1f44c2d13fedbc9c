"""Key-value text protocol — the paper's example second protocol (§4.1).

"Support for additional protocols can be added as needed, such as text
protocols to communicate with in-memory key-value stores directly over
TCP or UDP [21]" (the citation is memcached's text protocol).  This
module provides:

* the request/response envelope compute functions use
  (:func:`format_kv_request` / :func:`parse_kv_response_item`);
* the §6.3-style sanitizer for the protocol (op allow-list, memcached
  key rules: ≤250 bytes, no whitespace/control characters);
* :class:`KeyValueStoreService`, an in-memory store with
  memcached-flavoured semantics (get/set/delete/incr) and a
  sub-millisecond service-time model;
* the network-side exchange used by the communication engine's ``kv``
  protocol handler.
"""

from __future__ import annotations

from typing import Optional

from ..data.envelope import read_envelope, write_envelope
from .http import SanitizationError, _valid_host

__all__ = [
    "KV_OPS",
    "format_kv_request",
    "parse_kv_request_item",
    "parse_kv_response_item",
    "sanitize_kv_request",
    "KeyValueStoreService",
]

KV_OPS = frozenset({"get", "set", "delete", "incr"})

_MAX_KEY_BYTES = 250  # memcached's limit
_MAX_VALUE_BYTES = 1 << 20


def format_kv_request(op: str, host: str, key: str, value: bytes = b"") -> bytes:
    """Serialize a KV request item for a ``kv`` communication function."""
    return write_envelope({"op": op, "host": host, "key": key}, "value_hex", value)


def parse_kv_request_item(data: bytes) -> dict:
    fields = {"op": str, "host": str, "key": str, "value_hex": bytes}
    return read_envelope(data, "value_hex", fields, "kv envelope")


def parse_kv_response_item(item) -> dict:
    """Decode a KV response item (or its bytes): {status, value (bytes), error?}."""
    return read_envelope(item, "value_hex", {"status": int}, "kv response")


def sanitize_kv_request(envelope: dict) -> dict:
    """Validate an untrusted KV request per the protocol's rules."""
    op = envelope.get("op")
    if op not in KV_OPS:
        raise SanitizationError(f"disallowed kv operation {op!r}")
    host = envelope.get("host", "")
    if not _valid_host(host):
        raise SanitizationError(f"invalid host {host!r}")
    key = envelope.get("key", "")
    if not key:
        raise SanitizationError("empty key")
    raw_key = key.encode("utf-8")
    if len(raw_key) > _MAX_KEY_BYTES:
        raise SanitizationError(f"key longer than {_MAX_KEY_BYTES} bytes")
    if any(b <= 0x20 or b == 0x7F for b in raw_key):
        raise SanitizationError("key contains whitespace or control characters")
    if len(envelope.get("value", b"")) > _MAX_VALUE_BYTES:
        raise SanitizationError("value exceeds the 1 MiB limit")
    return envelope


class KeyValueStoreService:
    """An in-memory KV store reachable over the simulated network.

    Not an :class:`~repro.net.network.HttpService`: the ``kv`` protocol
    handler talks to it through :meth:`handle_kv`.  Registered on the
    network under its host name like any service.
    """

    def __init__(self, host: str = "cache.internal"):
        if not host:
            raise ValueError("service host must be non-empty")
        self.host = host
        self._data: dict[str, bytes] = {}
        self.requests_served = 0

    def _count(self) -> None:
        self.requests_served += 1

    # -- protocol semantics -----------------------------------------------------

    def handle_kv(self, op: str, key: str, value: bytes) -> tuple[int, bytes, str]:
        """Returns (status, value, reason); status mimics HTTP codes."""
        if op == "get":
            stored = self._data.get(key)
            if stored is None:
                return 404, b"", "miss"
            return 200, stored, "hit"
        if op == "set":
            self._data[key] = bytes(value)
            return 200, b"", "stored"
        if op == "delete":
            if key in self._data:
                del self._data[key]
                return 200, b"", "deleted"
            return 404, b"", "miss"
        if op == "incr":
            try:
                current = int(self._data.get(key, b"0"))
                step = int(value or b"1")
            except ValueError:
                return 400, b"", "not a number"
            updated = str(current + step).encode()
            self._data[key] = updated
            return 200, updated, "incremented"
        return 400, b"", f"unknown op {op!r}"

    def service_seconds(self, value_bytes: int) -> float:
        """In-memory stores answer in tens of microseconds."""
        return 20e-6 + value_bytes / 10e9

    # -- test helpers ----------------------------------------------------------------

    def put(self, key: str, value: bytes) -> None:
        self._data[key] = bytes(value)

    def get(self, key: str) -> Optional[bytes]:
        return self._data.get(key)

    def __len__(self) -> int:
        return len(self._data)
