"""Simulated remote services used by the paper's applications.

These stand in for the cloud endpoints the evaluation talks to: an
S3-like object store (§7.4 fetch-and-compute, §7.7 SSB ingest), the
authentication and log-shard services of the distributed log-processing
application (Fig 3), an LLM inference endpoint and a SQL database for
the Text2SQL agentic workflow (§7.7).

Each service is functional — real bytes in, real bytes out — with a
modelled server-side processing time.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from .http import HttpRequest, HttpResponse
from .network import HttpService

__all__ = [
    "ObjectStoreService",
    "AuthService",
    "LogShardService",
    "LlmService",
    "SqlDatabaseService",
    "EchoService",
]


class ObjectStoreService(HttpService):
    """An S3-like bucket: GET/PUT/DELETE on ``/<bucket>/<key>`` paths."""

    def __init__(self, host: str = "storage.internal"):
        super().__init__(host)
        self._objects: dict[str, bytes] = {}

    def put_object(self, bucket: str, key: str, data: bytes) -> None:
        """Server-side helper to preload data (no network cost)."""
        self._objects[f"/{bucket}/{key}"] = bytes(data)

    def get_object(self, bucket: str, key: str) -> bytes:
        return self._objects[f"/{bucket}/{key}"]

    def handle(self, request: HttpRequest) -> HttpResponse:
        path = request.path.split("?")[0]
        if request.method == "GET":
            data = self._objects.get(path)
            if data is None:
                return HttpResponse(status=404, reason="no such object")
            return HttpResponse(status=200, body=data)
        if request.method == "PUT":
            self._objects[path] = request.body
            return HttpResponse(status=200)
        if request.method == "DELETE":
            if path in self._objects:
                del self._objects[path]
                return HttpResponse(status=204)
            return HttpResponse(status=404, reason="no such object")
        return HttpResponse(status=405, reason="method not allowed")

    def service_seconds(self, request: HttpRequest, response: HttpResponse) -> float:
        # First-byte latency plus streaming at S3-like per-connection
        # bandwidth (~40 MB/s for a single GET).
        payload = len(response.body) or len(request.body)
        return 8e-3 + payload / 4e7


class AuthService(HttpService):
    """Token-to-endpoints authorization service (log-processing app).

    POST ``/authorize`` with a token body returns the JSON list of log
    shard URLs the token may read.
    """

    def __init__(self, host: str = "auth.internal", tokens: Optional[dict[str, list[str]]] = None):
        super().__init__(host)
        self._tokens = dict(tokens or {})

    def grant(self, token: str, endpoints: list[str]) -> None:
        self._tokens[token] = list(endpoints)

    def handle(self, request: HttpRequest) -> HttpResponse:
        if request.method != "POST" or not request.path.startswith("/authorize"):
            return HttpResponse(status=404, reason="unknown endpoint")
        token = request.body.decode("utf-8", errors="replace").strip()
        endpoints = self._tokens.get(token)
        if endpoints is None:
            return HttpResponse(status=403, reason="invalid token")
        return HttpResponse(status=200, body=json.dumps(endpoints).encode())

    def service_seconds(self, request: HttpRequest, response: HttpResponse) -> float:
        return 500e-6  # token lookup


class LogShardService(HttpService):
    """Serves log lines for one shard of the distributed log store.

    ``base_latency_seconds`` models the storage server's time to locate
    and read the shard (the paper's log services are remote storage
    servers, so fetches dominate the app's ~28 ms latency).
    """

    def __init__(self, host: str, lines: list[str], base_latency_seconds: float = 1e-3):
        super().__init__(host)
        self._lines = list(lines)
        self.base_latency_seconds = base_latency_seconds

    def handle(self, request: HttpRequest) -> HttpResponse:
        if request.method != "GET":
            return HttpResponse(status=405, reason="method not allowed")
        body = "\n".join(self._lines).encode()
        return HttpResponse(status=200, body=body)

    def service_seconds(self, request: HttpRequest, response: HttpResponse) -> float:
        return self.base_latency_seconds + len(response.body) / 2e9


class LlmService(HttpService):
    """A mock LLM inference endpoint for the Text2SQL workflow (§7.7).

    The paper runs Gemma-3-4b on an H100 and measures 1238 ms for the
    inference step; the mock reproduces that latency and produces a
    deterministic, template-based Text2SQL completion so the pipeline's
    downstream stages have real work to do.
    """

    DEFAULT_LATENCY_SECONDS = 1.238

    def __init__(
        self,
        host: str = "llm.internal",
        latency_seconds: float = DEFAULT_LATENCY_SECONDS,
        completion_fn: Optional[Callable[[str], str]] = None,
    ):
        super().__init__(host)
        self.latency_seconds = latency_seconds
        self._completion_fn = completion_fn or _default_text2sql_completion

    def handle(self, request: HttpRequest) -> HttpResponse:
        if request.method != "POST":
            return HttpResponse(status=405, reason="method not allowed")
        try:
            payload = json.loads(request.body.decode("utf-8"))
            prompt = payload["prompt"]
        except (ValueError, KeyError):
            return HttpResponse(status=400, reason="expected JSON body with 'prompt'")
        completion = self._completion_fn(prompt)
        body = json.dumps({"completion": completion}).encode()
        return HttpResponse(status=200, body=body)

    def service_seconds(self, request: HttpRequest, response: HttpResponse) -> float:
        return self.latency_seconds


def _default_text2sql_completion(prompt: str) -> str:
    """Turn a natural-language question into SQL, template-style.

    Recognises the shapes used by the Text2SQL example; everything else
    gets a generic SELECT so the pipeline still completes.
    """
    lowered = prompt.lower()
    table = "movies"
    for candidate in ("movies", "customers", "orders", "films"):
        if candidate in lowered:
            table = candidate
            break
    if "how many" in lowered or "count" in lowered:
        sql = f"SELECT COUNT(*) AS n FROM {table}"
    elif "average" in lowered or "mean" in lowered:
        sql = f"SELECT AVG(rating) AS avg_rating FROM {table}"
    elif "highest" in lowered or "top" in lowered or "best" in lowered:
        sql = f"SELECT title, rating FROM {table} ORDER BY rating DESC LIMIT 5"
    else:
        sql = f"SELECT * FROM {table} LIMIT 10"
    return f"```sql\n{sql}\n```"


class SqlDatabaseService(HttpService):
    """A SQL-over-HTTP database endpoint (SQLite stand-in for §7.7).

    The query execution itself is delegated to an ``executor`` callable
    (the mini SQL engine in :mod:`repro.query.sql` provides one), which
    receives the SQL text and returns rows as a list of dicts.
    """

    def __init__(self, host: str = "db.internal", executor: Optional[Callable[[str], list[dict]]] = None):
        super().__init__(host)
        if executor is None:
            raise ValueError("SqlDatabaseService requires an executor callable")
        self._executor = executor

    def handle(self, request: HttpRequest) -> HttpResponse:
        if request.method != "POST":
            return HttpResponse(status=405, reason="method not allowed")
        sql = request.body.decode("utf-8", errors="replace")
        try:
            rows = self._executor(sql)
        except Exception as exc:  # noqa: BLE001 - surface DB errors as 400s
            return HttpResponse(status=400, reason=f"query failed: {exc}")
        return HttpResponse(status=200, body=json.dumps(rows).encode())

    def service_seconds(self, request: HttpRequest, response: HttpResponse) -> float:
        # Matches the ~136 ms the paper reports for the SQLite query step,
        # scaled mildly by result size.
        return 0.1 + len(response.body) / 1e8


class EchoService(HttpService):
    """Returns the request body unchanged (testing / microbenchmarks)."""

    def __init__(self, host: str = "echo.internal", extra_seconds: float = 0.0):
        super().__init__(host)
        self.extra_seconds = extra_seconds

    def handle(self, request: HttpRequest) -> HttpResponse:
        return HttpResponse(status=200, body=request.body)

    def service_seconds(self, request: HttpRequest, response: HttpResponse) -> float:
        return self.extra_seconds + super().service_seconds(request, response)
