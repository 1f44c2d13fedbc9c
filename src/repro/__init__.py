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

``import repro`` loads this module alone.  Its top-level names, those of
:mod:`repro.backends`, :mod:`repro.cluster` and :mod:`repro.dispatcher`,
and ``repro.<subpackage>`` resolve on first use and are then cached, so
a trace replay never loads the worker node it does not run.
"""

from importlib import import_module as _import_module


def _lazy_exports(package: str, namespace: dict, exports: dict):
    """PEP 562 ``(__getattr__, __dir__)`` for ``package``: ``exports`` maps
    each public name to its defining module (relative to ``package``),
    imported on first use and cached in ``namespace``, the package's
    globals.  Any other non-dunder name is tried as a submodule."""

    def __getattr__(name: str):
        module = exports.get(name)
        if module is not None:
            value = namespace[name] = getattr(_import_module(module, package), name)
            return value
        if not name.startswith("__"):
            try:
                return _import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted(namespace.keys() | exports.keys())

    return __getattr__, __dir__


_EXPORTS = {
    "Composition": ".composition.graph",
    "CompositionError": ".composition.graph",
    "DslError": ".composition.dsl",
    "FunctionBinary": ".composition.registry",
    "Registry": ".composition.registry",
    "parse_composition": ".composition.dsl",
    "DataItem": ".data.items",
    "DataSet": ".data.items",
    "MemoryContext": ".data.context",
    "VirtualFileSystem": ".data.vfs",
    "InvocationResult": ".dispatcher.dispatcher",
    "DandelionError": ".errors",
    "FunctionFailure": ".errors",
    "FunctionTimeout": ".errors",
    "InvocationError": ".errors",
    "MemoryLimitExceeded": ".errors",
    "SyscallBlocked": ".errors",
    "compute_function": ".functions.sdk",
    "format_http_request": ".functions.sdk",
    "parse_http_response_item": ".functions.sdk",
    "WorkerConfig": ".worker",
    "WorkerNode": ".worker",
}

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _lazy_exports(__name__, globals(), _EXPORTS)
