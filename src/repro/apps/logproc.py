"""Distributed log processing — the Fig 3 example application.

The composition has three user compute functions and two uses of the
HTTP communication function:

1. ``access`` turns the client's access token into an authorization
   request;
2. the HTTP function POSTs it to the auth service, which returns the
   log-shard endpoints the token may read;
3. ``fanout`` formats one GET per endpoint;
4. the HTTP function fetches all shards in parallel (``each`` edge);
5. ``render`` aggregates the shard contents into a single HTML-ish
   report returned to the client.

``setup_log_services`` provisions the simulated auth service and log
shards; ``register_logproc_app`` registers functions and composition on
a worker.  ``LOGPROC_SECONDS_*`` are the modelled compute costs
(the app is I/O-intensive: compute is a small slice of its ~28 ms
end-to-end latency in the paper's Fig 8).
"""

from __future__ import annotations

import json

from ..functions.sdk import (
    compute_function,
    format_http_request,
    parse_http_response_item,
    read_items,
    write_item,
)
from ..net.services import AuthService, LogShardService
from ..worker import WorkerNode

__all__ = [
    "setup_log_services",
    "register_logproc_app",
    "LOGPROC_DSL",
    "DEFAULT_TOKEN",
]

DEFAULT_TOKEN = "token-alpha"

_ACCESS_SECONDS = 150e-6
_FANOUT_SECONDS = 100e-6
_RENDER_SECONDS = 800e-6


def setup_log_services(
    worker: WorkerNode,
    shard_count: int = 4,
    lines_per_shard: int = 50,
    token: str = DEFAULT_TOKEN,
    auth_host: str = "auth.internal",
    shard_latency_seconds: float = 1e-3,
) -> list[str]:
    """Provision auth + shard services; returns the shard endpoints."""
    endpoints = []
    for index in range(shard_count):
        host = f"logs{index}.internal"
        lines = [
            f"{index:02d}:{line:04d} level={'ERROR' if line % 17 == 0 else 'INFO'} "
            f"svc=frontend msg=request_completed latency_ms={(line * 7) % 250}"
            for line in range(lines_per_shard)
        ]
        worker.network.register(
            LogShardService(host, lines, base_latency_seconds=shard_latency_seconds)
        )
        endpoints.append(f"http://{host}/logs")
    auth = AuthService(host=auth_host)
    auth.grant(token, endpoints)
    worker.network.register(auth)
    return endpoints


def _access_binary(auth_host: str):
    @compute_function(name="logproc_access", compute_cost=_ACCESS_SECONDS)
    def access(vfs):
        token = vfs.read_text("/in/token/token").strip()
        write_item(
            vfs, "request", "auth",
            format_http_request(
                "POST", f"http://{auth_host}/authorize", body=token.encode()
            ),
        )

    return access


@compute_function(name="logproc_fanout", compute_cost=_FANOUT_SECONDS)
def fanout(vfs):
    response = parse_http_response_item(read_items(vfs, "endpoints")[0])
    if response["status"] != 200:
        raise PermissionError(f"authorization failed: {response}")
    endpoints = json.loads(response["body"])
    for index, endpoint in enumerate(endpoints):
        write_item(
            vfs, "requests", f"shard{index}",
            format_http_request("GET", endpoint),
        )


@compute_function(name="logproc_render", compute_cost=_RENDER_SECONDS)
def render(vfs):
    sections = []
    total_lines = 0
    error_lines = 0
    for item in read_items(vfs, "pages"):  # sorted by name
        response = parse_http_response_item(item)
        body = response["body"].decode("utf-8", errors="replace")
        lines = body.splitlines()
        total_lines += len(lines)
        errors = [line for line in lines if "level=ERROR" in line]
        error_lines += len(errors)
        sections.append(
            f"<section id='{item.ident}'><h2>{item.ident}</h2>"
            f"<p>{len(lines)} lines, {len(errors)} errors</p></section>"
        )
    html = (
        "<html><body><h1>Log report</h1>"
        f"<p>total_lines={total_lines} errors={error_lines}</p>"
        + "".join(sections)
        + "</body></html>"
    )
    write_item(vfs, "html", "report", html.encode())


LOGPROC_DSL = """
composition logproc {
    compute access uses logproc_access in(token) out(request);
    comm auth;
    compute fan uses logproc_fanout in(endpoints) out(requests);
    comm fetch;
    compute render uses logproc_render in(pages) out(html);

    input token -> access.token;
    access.request -> auth.request [all];
    auth.response -> fan.endpoints [all];
    fan.requests -> fetch.request [each];
    fetch.response -> render.pages [all];
    output render.html -> report;
}
"""


def register_logproc_app(worker: WorkerNode, auth_host: str = "auth.internal") -> str:
    """Register the Fig 3 composition on a worker; returns its name."""
    worker.frontend.register_function(_access_binary(auth_host))
    worker.frontend.register_function(fanout)
    worker.frontend.register_function(render)
    worker.frontend.register_composition(LOGPROC_DSL)
    return "logproc"
