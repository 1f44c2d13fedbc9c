#!/usr/bin/env python3
"""Dynamic spawning: a composition starts another one over HTTP (§4.1).

"Compositions can include nested compositions, or spawn new compositions
dynamically through Dandelion's HTTP interface, e.g., to support dynamic
control flow."  The worker's frontend is registered as a service on its
own simulated network.  The outer composition decides at run time which
composition to spawn, and its communication function POSTs to
``/v1/invoke/inner_double``; the reply carries the inner invocation's
outputs, which the last stage unwraps.

Exits non-zero if the doubled value is wrong.

Run:  python examples/dynamic_spawn.py
"""

import json
import sys

from repro import WorkerConfig, WorkerNode, compute_function
from repro.functions import format_http_request, parse_http_response_item, read_items, write_item

INNER = """
composition inner_double {
    compute d uses doubler in(value) out(result);
    input value -> d.value;
    output d.result -> result;
}
"""

OUTER = """
composition outer_spawner {
    compute prep uses spawn_request in(value) out(request);
    comm call;
    compute post uses unwrap_response in(response) out(final);
    input value -> prep.value;
    prep.request -> call.request [all];
    call.response -> post.response [all];
    output post.final -> final;
}
"""


@compute_function(compute_cost=1e-4)
def doubler(vfs):
    """The spawned composition's one stage."""
    value = int(vfs.read_text("/in/value/value"))
    vfs.write_text("/out/result/value", str(value * 2))


@compute_function(compute_cost=1e-4)
def spawn_request(vfs):
    """Build the POST that spawns ``inner_double`` on this worker."""
    value = vfs.read_text("/in/value/value")
    body = json.dumps({"value": value}).encode()
    write_item(
        vfs, "request", "r",
        format_http_request("POST", "http://dandelion.internal/v1/invoke/inner_double", body=body),
    )


@compute_function(compute_cost=1e-4)
def unwrap_response(vfs):
    """Take the spawned invocation's result out of the HTTP reply."""
    envelope = parse_http_response_item(read_items(vfs, "response")[0].data)
    if envelope["status"] != 200:
        raise RuntimeError(f"nested invocation failed: {envelope}")
    outputs = json.loads(envelope["body"])
    write_item(vfs, "final", "value", bytes.fromhex(outputs["result"]["value"]))


def main() -> int:
    worker = WorkerNode(WorkerConfig(total_cores=6, control_plane_enabled=False))
    # The worker's own frontend becomes a network-reachable service.
    worker.network.register(worker.frontend)
    for binary in (doubler, spawn_request, unwrap_response):
        worker.frontend.register_function(binary)
    worker.frontend.register_composition(INNER)
    worker.frontend.register_composition(OUTER)

    result = worker.invoke_and_run("outer_spawner", {"value": b"21"})
    doubled = result.output("final").item("value").data if result.ok else None
    print(f"outer_spawner(21) -> {doubled!r}")
    print(f"latency:     {result.latency * 1e3:.3f} ms (simulated, nested invocation included)")
    print(f"invocations: {worker.dispatcher.invocations_completed} completed (outer + spawned)")
    if doubled != b"42" or worker.dispatcher.invocations_completed != 2:
        print("FAILED: expected 42 from one spawned invocation", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
