"""Probes: direct timed calls into one layer.

A probe answers "how fast is this layer alone on the inputs this
workload gives it": the data-plane probes take the workload's own
payload sets, ``composition.parse_us`` its DSL, the scenario probes its
spec, and so on.  A probe whose input a workload does not have (its
layer is bypassed there) reports 0.  Probes are not gated; they are the
numbers a later per-layer optimisation cites next to the end-to-end
metric it is supposed to move.

Every probe is timed three times and the fastest is kept: these are
sub-second loops, where the minimum is the steadiest estimate of cost.
"""

from __future__ import annotations

import time
from itertools import islice

from .harness import CALIB_REFERENCE_S, calibrate

__all__ = ["run_probes"]


def _best(call, repeats: int = 3) -> float:
    """Fastest wall seconds of ``call()`` over ``repeats`` runs."""
    walls = []
    for _ in range(repeats):
        begin = time.perf_counter()
        call()
        walls.append(time.perf_counter() - begin)
    return min(walls)


def _echo_binary():
    from repro import compute_function

    @compute_function(name="probe_echo", compute_cost=1e-4)
    def probe_echo(vfs):
        vfs.write_bytes("/out/result/data", vfs.read_bytes("/in/data/data"))

    return probe_echo


_ECHO_DSL = """
composition probe_echo_app {
    compute stage uses probe_echo in(data) out(result);
    input data -> stage.data;
    output stage.result -> result;
}
"""


# -- always-on probes (no workload input) ----------------------------------------


def _sim_timeouts():
    from repro.sim import Environment

    processes, hops = 100, 200

    def call():
        env = Environment()

        def ticker(step):
            for _ in range(hops):
                yield env.timeout(step)

        for index in range(processes):
            env.process(ticker(1.0 + index * 1e-3))
        env.run()

    return {"sim.timeout_ops_per_s": processes * hops / _best(call)}


def _sim_spawn():
    from repro.sim import Environment

    count = 20_000

    def call():
        env = Environment()

        def child():
            return
            yield

        for _ in range(count):
            env.process(child())
        env.run()

    return {"sim.process_spawn_per_s": count / _best(call)}


def _dispatcher_single():
    from repro import WorkerConfig, WorkerNode

    count = 300
    worker = WorkerNode(WorkerConfig(total_cores=4, control_plane_enabled=False))
    worker.frontend.register_function(_echo_binary())
    worker.frontend.register_composition(_ECHO_DSL)
    inputs = {"data": b"probe"}

    def call():
        for _ in range(count):
            worker.invoke_and_run("probe_echo_app", inputs)

    return {"dispatcher.single_inv_us": 1e6 * _best(call) / count}


def _functions_guarded():
    from repro.data import DataItem, DataSet
    from repro.functions import run_compute_function

    count = 2_000
    binary = _echo_binary()
    inputs = [DataSet("data", [DataItem("data", b"probe")])]

    def call():
        for _ in range(count):
            run_compute_function(binary, inputs, ["result"])

    return {"functions.guarded_call_us": 1e6 * _best(call) / count}


def _health_observe():
    from repro.cluster.health import LatencyHealthTracker

    count = 50_000

    def call():
        tracker = LatencyHealthTracker()
        for index in range(count):
            tracker.observe(index & 7, 1e-3 * (1 + (index & 3)))

    return {"cluster.health_observe_per_s": count / _best(call)}


# -- probes on workload inputs ---------------------------------------------------


def _data(sets):
    from repro.data import MemoryContext, parse_sets, parse_sets_lazy, serialize_sets

    blob = serialize_sets(sets)
    # Enough rounds to move ~8 MB (at least 20) whatever the payload size.
    rounds = max(20, min(20_000, (8 << 20) // len(blob)))
    megabytes = rounds * len(blob) / 1e6

    def serialize():
        for _ in range(rounds):
            serialize_sets(sets)

    def lazy():
        for _ in range(rounds):
            for data_set in parse_sets_lazy(blob):
                len(data_set)

    def strict():
        for _ in range(rounds):
            parse_sets(blob)

    def store():
        for _ in range(rounds):
            context = MemoryContext(len(blob) + 4096)
            context.store_sets(sets)
            context.free()

    return {
        "data.serialize_mb_per_s": megabytes / _best(serialize),
        "data.parse_lazy_mb_per_s": megabytes / _best(lazy),
        "data.parse_strict_mb_per_s": megabytes / _best(strict),
        "data.store_sets_per_s": rounds * len(sets) / _best(store),
    }


def _composition(dsl):
    from repro.composition import parse_composition

    count = 200

    def call():
        for _ in range(count):
            parse_composition(dsl)

    return {"composition.parse_us": 1e6 * _best(call) / count}


def _scenario(spec):
    from repro.scenario import assemble_cluster, scenario_from_toml

    text = spec.to_toml()
    count = 50

    def parse():
        for _ in range(count):
            scenario_from_toml(text)

    out = {"scenario.spec_parse_us": 1e6 * _best(parse) / count}
    if spec.trace.kind == "synthetic":
        out["scenario.assemble_ms"] = 1e3 * _best(lambda: assemble_cluster(spec))
        cluster, _injector = assemble_cluster(spec)
        policy = cluster.routing_policy
        decisions = 50_000

        def decide():
            for _ in range(decisions):
                policy.decide(cluster.snapshot())

        out["sched.decisions_per_s"] = decisions / _best(decide)
    return out


def _trace(trace):
    arrivals = sum(1 for _ in islice(trace.iter_invocations(), 50_000))

    def call():
        for _ in islice(trace.iter_invocations(), arrivals):
            pass

    return {"trace.arrivals_per_s": arrivals / _best(call)}


def _query(tables):
    from repro.query import SSB_QUERY_NAMES, run_ssb_query

    def call():
        for query in SSB_QUERY_NAMES:
            run_ssb_query(query, tables)

    rows = tables["lineorder"].num_rows * len(SSB_QUERY_NAMES)
    return {"query.local_rows_per_s": rows / _best(call)}


_ALWAYS = (_sim_timeouts, _sim_spawn, _dispatcher_single, _functions_guarded,
           _health_observe)
_ON_INPUT = {"sets": _data, "dsl": _composition, "spec": _scenario,
             "trace": _trace, "tables": _query}


def run_probes(inputs: dict, tracer) -> dict:
    """All probes whose input is present; ``{metric name: value}``, each
    value at reference speed (the calibration kernel runs between probes)."""
    probes = [(probe.__name__.lstrip("_"), probe, ()) for probe in _ALWAYS]
    probes += [
        (key, probe, (inputs[key],))
        for key, probe in _ON_INPUT.items()
        if inputs.get(key) is not None
    ]
    out = {}
    kernel_before = calibrate()
    for label, probe, arguments in probes:
        with tracer.span(f"probe:{label}"):
            values = probe(*arguments)
        kernel_after = calibrate()
        slowdown = (kernel_before + kernel_after) / 2 / CALIB_REFERENCE_S
        kernel_before = kernel_after
        for name, value in values.items():
            # Every probe is a rate (*_per_s) or a time (*_us, *_ms).
            out[name] = value * slowdown if name.endswith("_per_s") else value / slowdown
    return out
