"""Tests for the HTTP model and §6.3 input sanitization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    HttpRequest,
    HttpResponse,
    SanitizationError,
    sanitize_request,
)


def request(method="GET", url="http://storage.internal/bucket/key", **kwargs):
    return HttpRequest(method=method, url=url, **kwargs)


def test_request_host_and_path():
    r = request(url="http://storage.internal/bucket/key?v=1")
    assert r.host == "storage.internal"
    assert r.path == "/bucket/key?v=1"


def test_request_path_defaults_to_root():
    assert request(url="http://host.internal").path == "/"


def test_request_size_includes_body_and_headers():
    small = request()
    big = request(body=b"x" * 1000, headers={"a": "b"})
    assert big.size > small.size + 1000


def test_response_ok_range():
    assert HttpResponse(200).ok
    assert HttpResponse(204).ok
    assert not HttpResponse(404).ok
    assert not HttpResponse(502).ok


def test_response_text():
    assert HttpResponse(200, body="héllo".encode()).text() == "héllo"


def test_sanitize_accepts_valid_request():
    r = request()
    assert sanitize_request(r) is r


def test_sanitize_accepts_ip_host():
    sanitize_request(request(url="http://10.0.0.1/path"))
    sanitize_request(request(url="http://[::1]/path"))


@pytest.mark.parametrize("method", ["TRACE", "CONNECT", "get", "FOO"])
def test_sanitize_rejects_bad_method(method):
    with pytest.raises(SanitizationError, match="method"):
        sanitize_request(request(method=method))


@pytest.mark.parametrize("version", ["HTTP/0.9", "HTTP/2", "SPDY/3", ""])
def test_sanitize_rejects_bad_version(version):
    with pytest.raises(SanitizationError, match="version"):
        sanitize_request(request(version=version))


def test_sanitize_rejects_bad_scheme():
    with pytest.raises(SanitizationError, match="scheme"):
        sanitize_request(request(url="ftp://host/path"))
    with pytest.raises(SanitizationError, match="scheme"):
        sanitize_request(request(url="file:///etc/passwd"))


@pytest.mark.parametrize(
    "url",
    [
        "http:///nohost",
        "http://-bad.example.com/",
        "http://bad-.example.com/",
        "http://exa mple.com/",
        "http://" + "a" * 300 + ".com/",
    ],
)
def test_sanitize_rejects_invalid_host(url):
    with pytest.raises(SanitizationError):
        sanitize_request(request(url=url))


def test_sanitize_rejects_crlf_in_url():
    with pytest.raises(SanitizationError):
        sanitize_request(request(url="http://host.internal/a\r\nX-Evil: 1"))


def test_sanitize_rejects_crlf_in_headers():
    with pytest.raises(SanitizationError, match="injection"):
        sanitize_request(request(headers={"X-A": "v\r\nX-Evil: 1"}))
    with pytest.raises(SanitizationError, match="injection"):
        sanitize_request(request(headers={"X-A\r\nX-Evil": "v"}))


@settings(max_examples=100, deadline=None)
@given(st.text(max_size=40))
def test_property_sanitizer_never_crashes(url_fragment):
    # Arbitrary attacker-controlled URL text either sanitizes cleanly or
    # raises SanitizationError — nothing else escapes.
    try:
        sanitize_request(request(url="http://" + url_fragment))
    except SanitizationError:
        pass
