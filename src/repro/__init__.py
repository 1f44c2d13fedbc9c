"""Dandelion reproduction — an elastic cloud platform for DAGs of pure
compute and communication functions (SOSP 2025), rebuilt in Python on a
discrete-event simulation substrate.

Quickstart::

    from repro import WorkerNode, WorkerConfig, compute_function

    @compute_function()
    def shout(vfs):
        vfs.write_text("/out/result/text", vfs.read_text("/in/text/text").upper())

    worker = WorkerNode(WorkerConfig(total_cores=4))
    worker.frontend.register_function(shout)
    worker.frontend.register_composition('''
        composition hello {
            compute s uses shout in(text) out(result);
            input text -> s.text;
            output s.result -> result;
        }
    ''')
    result = worker.invoke_and_run("hello", {"text": b"dandelion"})
    print(result.output("result").item("text").text())  # DANDELION

The package layout mirrors the system described in DESIGN.md:

- :mod:`repro.sim` — discrete-event simulation kernel;
- :mod:`repro.data` — data items/sets, memory contexts, virtual FS;
- :mod:`repro.composition` — DAG model, composition DSL, registry;
- :mod:`repro.functions` — compute-function harness + purity guard;
- :mod:`repro.backends` — KVM/process/CHERI/rWasm isolation cost models;
- :mod:`repro.engines` / :mod:`repro.dispatcher` /
  :mod:`repro.controlplane` / :mod:`repro.frontend` — the worker node;
- :mod:`repro.net` — simulated network, HTTP sanitization, services;
- :mod:`repro.baselines` — Firecracker/gVisor/Wasmtime/Hyperlight/D-hybrid;
- :mod:`repro.trace` — Azure-like function population, sampler, streamed
  invocations (replayed by :mod:`repro.sim.sharded`);
- :mod:`repro.query` — columnar engine, SSB, mini-SQL, Athena model;
- :mod:`repro.apps` — log processing, QOI→PNG, Text2SQL;
- :mod:`repro.experiments` — one harness per paper table/figure.
"""

from .composition import (
    Composition,
    CompositionError,
    DslError,
    FunctionBinary,
    Registry,
    parse_composition,
)
from .data import DataItem, DataSet, MemoryContext, VirtualFileSystem
from .dispatcher import InvocationResult
from .errors import (
    DandelionError,
    FunctionFailure,
    FunctionTimeout,
    InvocationError,
    MemoryLimitExceeded,
    SyscallBlocked,
)
from .functions import compute_function, format_http_request, parse_http_response_item
from .worker import WorkerConfig, WorkerNode

__version__ = "1.0.0"

__all__ = [
    "Composition",
    "CompositionError",
    "DslError",
    "FunctionBinary",
    "Registry",
    "parse_composition",
    "DataItem",
    "DataSet",
    "MemoryContext",
    "VirtualFileSystem",
    "InvocationResult",
    "DandelionError",
    "FunctionFailure",
    "FunctionTimeout",
    "InvocationError",
    "MemoryLimitExceeded",
    "SyscallBlocked",
    "compute_function",
    "format_http_request",
    "parse_http_response_item",
    "WorkerConfig",
    "WorkerNode",
    "__version__",
]
