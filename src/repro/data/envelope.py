"""The JSON+hex envelope of communication-function items, accounted first.

Request and response items are JSON objects whose binary part travels as
hex in one ``<name>_hex`` field (``body_hex`` for HTTP).  Only this
module knows the format; docs/dataplane.md, "Accounting vs. movement",
has the cost model.
"""

from __future__ import annotations

import json

from .items import register_item_type

__all__ = ["EnvelopeItem", "write_envelope", "read_envelope"]


class EnvelopeItem:
    """A :class:`~repro.data.items.DataItem` that is an unbuilt envelope.

    ``fields`` (the small JSON members) and ``payload`` (the bytes that
    ``hex_field`` carries as hex; ``hex_field=None``: no binary part, as
    in an error reply) are held by reference.  ``size`` is the exact byte
    count of the encoding; the bytes are built only if ``.data`` is
    read (wire serialisation, the HTTP frontend, a function that
    forwards the raw item).
    """

    __slots__ = ("ident", "key", "fields", "hex_field", "payload", "_head", "_data", "__weakref__")

    def __init__(self, ident: str, fields: dict, hex_field=None, payload=b"", key=None):
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            raise TypeError(f"envelope payload must be bytes-like, got {type(payload).__name__}")
        if hex_field in fields:
            raise ValueError(f"envelope fields already contain {hex_field!r}")
        self.ident = ident
        self.key = key
        self.fields = fields
        self.hex_field = hex_field
        self.payload = bytes(payload)
        # The envelope around an empty hex string.  json.dumps escapes to
        # ASCII, so its length in characters is its length in bytes.
        self._head = json.dumps(fields if hex_field is None else {**fields, hex_field: ""})
        self._data = None

    @property
    def size(self) -> int:
        """``len(self.data)``, without building it."""
        return len(self._head) + 2 * len(self.payload)

    @property
    def data(self) -> bytes:
        """The envelope bytes, built on first access: the hex digits go
        in before the closing ``"}`` of the head."""
        if self._data is None:
            head = self._head
            if self.hex_field is not None:
                head = f'{head[:-2]}{self.payload.hex()}"}}'
            self._data = head.encode()
        return self._data

    def text(self, encoding: str = "utf-8") -> str:
        """Decode the envelope as text (convenience for examples/tests)."""
        return self.data.decode(encoding)


def write_envelope(fields: dict, hex_field: str, payload: bytes) -> bytes:
    """``json.dumps({**fields, hex_field: payload.hex()})`` as bytes."""
    return EnvelopeItem("envelope", fields, hex_field, payload).data


def read_envelope(source, hex_field: str, required: "dict[str, type]", what: str) -> dict:
    """Decode an envelope into its fields plus the payload as bytes.

    ``source`` is an item or raw bytes.  An :class:`EnvelopeItem` hands
    over its fields (copied) and payload (by reference); anything else
    is the wire form and goes through JSON and hex.  The payload lands
    under ``hex_field`` minus ``_hex`` (``b""`` if absent).  ``required``
    maps mandatory fields to their types; a missing or wrong-typed field
    or undecodable input raises :class:`ValueError` naming ``what``.
    """
    if isinstance(source, EnvelopeItem) and source.hex_field in (None, hex_field):
        envelope = dict(source.fields)
        if source.hex_field is not None:
            envelope[hex_field] = source.payload
    else:
        envelope = json.loads(getattr(source, "data", source).decode("utf-8"))
        if not isinstance(envelope, dict):
            raise ValueError(f"{what} must be a JSON object")
        if hex_field in envelope:
            if not isinstance(envelope[hex_field], str):
                raise ValueError(f"{what} field {hex_field!r} must be a hex string")
            envelope[hex_field] = bytes.fromhex(envelope[hex_field])
    missing = sorted(name for name in required if name not in envelope)
    if missing:
        raise ValueError(f"{what} missing fields: {missing}")
    for name, kind in required.items():
        if not isinstance(envelope[name], kind):
            raise ValueError(f"{what} field {name!r} must be {kind.__name__}")
    envelope[hex_field[: -len("_hex")]] = envelope.pop(hex_field, b"")
    return envelope


register_item_type(EnvelopeItem)
