"""HTTP message model and communication-function input sanitization.

Communication engines are trusted code, so the data they receive from
untrusted compute functions must be validated before any syscall is
made on its behalf.  §6.3: "For our HTTP function, we only rely on the
first line defined by the protocol to contain the HTTP method and
protocol version.  Dandelion can check these fields against a fixed set
of options and the first part of the URI, which identifies the host to
connect to with either a valid IP or a domain name."

:func:`sanitize_request` implements exactly that check and raises
:class:`SanitizationError` on anything else.
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass, field
from typing import Mapping
from urllib.parse import urlsplit

__all__ = [
    "HttpRequest",
    "HttpResponse",
    "SanitizationError",
    "sanitize_request",
    "ALLOWED_METHODS",
    "ALLOWED_VERSIONS",
]

ALLOWED_METHODS = frozenset({"GET", "HEAD", "POST", "PUT", "DELETE", "PATCH"})
ALLOWED_VERSIONS = frozenset({"HTTP/1.0", "HTTP/1.1"})

# RFC 1035-style hostname label.
_LABEL = re.compile(r"^(?!-)[A-Za-z0-9-]{1,63}(?<!-)$")


class SanitizationError(ValueError):
    """Raised when untrusted request data fails validation."""


@dataclass(frozen=True)
class HttpRequest:
    """A parsed HTTP request flowing through the platform."""

    method: str
    url: str
    headers: Mapping[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    @property
    def host(self) -> str:
        try:
            return urlsplit(self.url).hostname or ""
        except ValueError:
            return ""

    @property
    def path(self) -> str:
        parts = urlsplit(self.url)
        path = parts.path or "/"
        if parts.query:
            path = f"{path}?{parts.query}"
        return path

    @property
    def size(self) -> int:
        """Approximate on-the-wire size in bytes."""
        header_bytes = sum(len(k) + len(v) + 4 for k, v in self.headers.items())
        return len(self.method) + len(self.url) + len(self.version) + 4 + header_bytes + len(self.body)


@dataclass(frozen=True)
class HttpResponse:
    """An HTTP response returned by a (simulated) remote service."""

    status: int
    body: bytes = b""
    headers: dict[str, str] = field(default_factory=dict)
    reason: str = ""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def size(self) -> int:
        header_bytes = sum(len(k) + len(v) + 4 for k, v in self.headers.items())
        return 16 + header_bytes + len(self.body)

    def text(self, encoding: str = "utf-8") -> str:
        return self.body.decode(encoding)


# Host validity is a pure function of the host string; communication
# functions validate the same handful of hosts millions of times per
# experiment, so memoize (bounded to keep adversarial inputs from
# growing it without limit).
_HOST_CACHE: dict[str, bool] = {}
_HOST_CACHE_LIMIT = 1024


def _valid_host(host: str) -> bool:
    cached = _HOST_CACHE.get(host)
    if cached is not None:
        return cached
    valid = _compute_valid_host(host)
    if len(_HOST_CACHE) < _HOST_CACHE_LIMIT:
        _HOST_CACHE[host] = valid
    return valid


def _compute_valid_host(host: str) -> bool:
    if not host:
        return False
    try:
        ipaddress.ip_address(host)
        return True
    except ValueError:
        pass
    if len(host) > 253:
        return False
    labels = host.split(".")
    return all(_LABEL.match(label) for label in labels)


def sanitize_request(request: HttpRequest) -> HttpRequest:
    """Validate an untrusted request per the paper's §6.3 rules.

    Checks the method and protocol version against fixed allow-lists
    and requires the URI's host part to be a valid IP address or domain
    name.  Returns the request unchanged if valid; raises
    :class:`SanitizationError` otherwise.
    """
    if request.method not in ALLOWED_METHODS:
        raise SanitizationError(f"disallowed HTTP method {request.method!r}")
    if request.version not in ALLOWED_VERSIONS:
        raise SanitizationError(f"disallowed protocol version {request.version!r}")
    if any(c in request.url for c in ("\r", "\n", " ")):
        raise SanitizationError("URL contains forbidden whitespace/control characters")
    try:
        parts = urlsplit(request.url)
        hostname = parts.hostname
    except ValueError as exc:
        raise SanitizationError(f"unparseable URL: {exc}") from exc
    if parts.scheme not in ("http", "https"):
        raise SanitizationError(f"disallowed URL scheme {parts.scheme!r}")
    host = hostname or ""
    if not _valid_host(host):
        raise SanitizationError(f"invalid host {host!r}")
    for name, value in request.headers.items():
        if not isinstance(value, str):
            raise SanitizationError(f"header {name!r} is not a string")
        if any(c in name or c in value for c in ("\r", "\n")):
            raise SanitizationError("header contains CR/LF (injection attempt)")
    return request
