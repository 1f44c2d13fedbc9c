"""The accounted response envelope: size, bytes, reader, wire round trip."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    DataItem,
    DataSet,
    EnvelopeItem,
    parse_sets,
    parse_sets_lazy,
    serialize_sets,
    serialized_size,
)
from repro.data.envelope import read_envelope, write_envelope
from repro.functions import format_http_request, parse_http_request_item, parse_http_response_item

# Reasons exercise JSON escaping: non-ASCII, quotes, backslashes, controls.
_reasons = st.text(
    alphabet=st.one_of(st.characters(blacklist_categories=("Cs",)), st.sampled_from('"\\\né中')),
    max_size=24,
)
_json_leaves = st.one_of(st.integers(-(2**40), 2**40), st.booleans(), st.none(), _reasons)
_extras = st.dictionaries(
    st.text(min_size=1, max_size=8).filter(lambda k: k not in ("status", "reason", "body", "body_hex")),
    st.one_of(_json_leaves, st.lists(_json_leaves, max_size=3)),
    max_size=3,
)


def _old_formula(fields, hex_field, payload):
    """What the comm engine used to build at every response site."""
    return json.dumps({**fields, hex_field: payload.hex()}).encode()


@settings(max_examples=200, deadline=None)
@given(st.integers(100, 599), _reasons, _extras, st.binary(max_size=300), st.sampled_from([None, "k"]))
def test_envelope_item_is_the_old_encoding_accounted(status, reason, extras, body, key):
    fields = {"status": status, "reason": reason, **extras}
    item = EnvelopeItem("r0", fields, "body_hex", body, key=key)
    size_before_build = item.size
    assert item._data is None  # size came from the head, not the bytes
    assert item.data == _old_formula(fields, "body_hex", body)
    assert size_before_build == item.size == len(item.data)
    assert item.data is item.data  # built once

    assert parse_http_response_item(item) == parse_http_response_item(item.data)
    assert parse_http_response_item(item)["body"] is item.payload  # by reference
    parsed = parse_http_response_item(EnvelopeItem("r0", fields, "body_hex", body))
    parsed["status"] = -1
    assert fields["status"] == status  # the reader hands out a copy of the fields

    unbuilt = EnvelopeItem("r0", fields, "body_hex", body, key=key)
    response = DataSet("response", [unbuilt])
    assert serialized_size([response]) == len(serialize_sets([response]))
    blob = serialize_sets([DataSet("response", [EnvelopeItem("r0", fields, "body_hex", body, key=key)])])
    for parse in (parse_sets_lazy, parse_sets):
        (round_tripped,) = parse(blob)
        (wire_item,) = list(round_tripped)
        assert (wire_item.ident, wire_item.key, wire_item.size) == ("r0", key, item.size)
        assert wire_item.data == item.data
        assert parse_http_response_item(wire_item) == parse_http_response_item(item)


@settings(max_examples=100, deadline=None)
@given(st.integers(100, 599), _reasons, st.integers(0, 5), st.booleans())
def test_error_envelope_without_payload(status, error, retried, idempotent):
    fields = {"status": status, "error": error, "retried": retried, "idempotent": idempotent}
    item = EnvelopeItem("r0", fields)
    assert item.size == len(item.data)
    assert item.data == json.dumps(fields).encode()
    assert parse_http_response_item(item) == parse_http_response_item(item.data) == {**fields, "body": b""}


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200), st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=2))
def test_request_writers_keep_their_wire_form(body, headers):
    http = format_http_request("POST", "http://echo.internal/x", body=body, headers=headers)
    assert http == _old_formula(
        {"method": "POST", "url": "http://echo.internal/x", "headers": headers}, "body_hex", body
    )
    assert parse_http_request_item(http) == {
        "method": "POST", "url": "http://echo.internal/x", "headers": headers, "body": body,
    }


def test_reader_accepts_any_item_type_and_bytes():
    raw = write_envelope({"status": 200, "reason": "OK"}, "body_hex", b"\x00\xff")
    expected = {"status": 200, "reason": "OK", "body": b"\x00\xff"}
    assert parse_http_response_item(raw) == expected
    assert parse_http_response_item(DataItem("r", raw)) == expected


@pytest.mark.parametrize(
    "raw",
    [
        b"\xff\xfe",  # not UTF-8
        b"not json",
        b'["status", 200]',
        b'{"reason": "no status"}',
        b'{"status": "200"}',
        b'{"status": 200, "body_hex": 5}',
        b'{"status": 200, "body_hex": null}',
        b'{"status": 200, "body_hex": "zz"}',
    ],
)
def test_malformed_response_envelopes_raise_value_error(raw):
    with pytest.raises(ValueError):
        parse_http_response_item(raw)


def test_envelope_item_rejects_misuse():
    with pytest.raises(TypeError):
        EnvelopeItem("r", {"status": 200}, "body_hex", "text")
    with pytest.raises(ValueError, match="already contain"):
        EnvelopeItem("r", {"status": 200, "body_hex": "00"}, "body_hex", b"\x00")
    with pytest.raises(ValueError, match="missing fields"):
        read_envelope(EnvelopeItem("r", {"reason": "x"}), "body_hex", {"status": int}, "response")
