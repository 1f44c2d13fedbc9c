"""Fig 8 — multiplexing compute- vs I/O-intensive apps under bursty load.

The distributed log-processing application (I/O-intensive, Fig 3) and
the QOI→PNG image compression application (compute-intensive) run
together on each platform while their request rates change over time.
Dandelion cold-starts every request yet keeps latency low and stable
(the controller re-allocates cores between compute and communication
engines as the mix shifts); Firecracker is bimodal (97% hot + 3%
snapshot restores); Wasmtime suffers cross-application interference on
its shared runtime.

Reported per app and system: average and p99 latency plus the paper's
relative-variance metric (variance / mean², in %), where the paper
measures Dandelion at 1.30% (compression) and 2.87% (log processing)
vs Firecracker's 389.6% / 1495.17%.
"""

from __future__ import annotations

from functools import partial
from operator import itemgetter

from ..apps.compress import QOI_TO_PNG_SECONDS
from ..apps.logproc import register_logproc_app, setup_log_services
from ..baselines import (
    FIRECRACKER_SNAPSHOT,
    WASMTIME,
    FaasPlatform,
    compute_phase,
    io_phase,
)
from ..functions.sdk import compute_function, write_item
from ..sim.core import Environment
from ..sim.distributions import Rng
from ..sim.metrics import LatencyRecorder
from ..worker import WorkerConfig, WorkerNode
from ..workloads.loadgen import run_arrivals
from .common import ExperimentResult

__all__ = ["run_fig08", "DEFAULT_SCHEDULE"]

# Bursty (duration_seconds, rps) segments per application.
DEFAULT_SCHEDULE = {
    "logproc": [(2.0, 50.0), (2.0, 220.0), (2.0, 50.0)],
    "compress": [(2.0, 120.0), (2.0, 40.0), (2.0, 460.0)],
}

# Baseline-side phase models of the two applications (the Dandelion
# side runs the real compositions).  Log processing: auth round trip,
# then parallel shard fetches, then rendering.  Compression: one long
# compute burst.
_LOGPROC_PHASES = [
    compute_phase(150e-6),
    io_phase(1.1e-3),        # authorization round trip
    compute_phase(100e-6),
    io_phase(23e-3),         # shard fetches (overlapped inside the app)
    compute_phase(800e-6),
]
_COMPRESS_PHASES = [compute_phase(QOI_TO_PNG_SECONDS)]


def _modelled_compress_binary():
    """Compression with the real app's cost but a token body.

    The genuine QOI→PNG conversion (exercised by tests and examples)
    burns ~10 ms of *host* CPU per request; at thousands of requests a
    sweep would spend minutes computing identical PNGs.  The loaded
    experiment models the cost and keeps the data flow.
    """

    @compute_function(name="qoi_to_png", compute_cost=QOI_TO_PNG_SECONDS, binary_size=512 * 1024)
    def convert(vfs):
        write_item(vfs, "png", "out.png", b"png-bytes")

    return convert


def _dandelion_submits(cores: int):
    worker = WorkerNode(
        WorkerConfig(total_cores=cores, control_plane_enabled=True, machine="linux")
    )
    setup_log_services(worker, shard_count=4, lines_per_shard=40, shard_latency_seconds=22e-3)
    register_logproc_app(worker)
    worker.frontend.register_function(_modelled_compress_binary())
    worker.frontend.register_composition(
        """
        composition image_compress {
            compute convert uses qoi_to_png in(image) out(png);
            input image -> convert.image;
            output convert.png -> png;
        }
        """
    )
    return worker, {
        "logproc": lambda: worker.frontend.invoke("logproc", {"token": b"token-alpha"}),
        "compress": lambda: worker.frontend.invoke("image_compress", {"image": b"qoi"}),
    }


def _baseline_submits(spec, hot_ratio, cores, seed):
    env = Environment()
    platform = FaasPlatform(env, spec, cores, hot_ratio, Rng(seed))
    platform.register_function("logproc", _LOGPROC_PHASES)
    platform.register_function("compress", _COMPRESS_PHASES)
    return env, {
        "logproc": lambda: platform.request("logproc"),
        "compress": lambda: platform.request("compress"),
    }


def _arrival_lists(apps, schedule, seed):
    """Per-app arrival times, in ``apps`` order.

    Each app's stream is salted by its rank among the app names: stable
    across processes, unlike ``hash(app)`` under ``PYTHONHASHSEED``.
    """
    rng = Rng(seed)
    salts = {app: rank for rank, app in enumerate(sorted(apps))}
    return {
        app: rng.fork(salts[app]).piecewise_poisson_arrivals(schedule[app])
        for app in apps
    }


def _record(env, recorder, started, event):
    if getattr(event._value, "ok", True) is not False:
        recorder.record(env.now - started)


def _latencies(env, submits, schedule, seed):
    """Run both apps' bursty schedules through one open-loop driver."""
    recorders = {app: LatencyRecorder(app) for app in submits}
    arrivals = sorted(
        ((t, app) for app, times in _arrival_lists(submits, schedule, seed).items() for t in times),
        key=itemgetter(0),  # stable: at a tie, the app first in `submits` goes first
    )
    apps = iter([app for _t, app in arrivals])

    def submit():
        app = next(apps)
        completion = submits[app]()
        completion.callbacks.append(partial(_record, env, recorders[app], env.now))
        return completion

    run_arrivals(env, submit, [t for t, _app in arrivals])
    return recorders


def run_fig08(
    schedule=DEFAULT_SCHEDULE,
    cores: int = 16,
    seed: int = 0,
) -> ExperimentResult:
    result = ExperimentResult(
        name="Fig 8",
        description="Multiplexing compute- and I/O-intensive apps under bursty load",
        headers=["system", "app", "mean_ms", "p99_ms", "rel_variance_pct", "requests"],
    )
    dandelion_worker, dandelion_submits = _dandelion_submits(cores)
    systems = {
        "dandelion": (dandelion_worker.env, dandelion_submits),
        "firecracker": _baseline_submits(FIRECRACKER_SNAPSHOT, 0.97, cores, seed + 1),
        "wasmtime": _baseline_submits(WASMTIME, 0.0, cores, seed + 2),
    }

    for system, (env, submits) in systems.items():
        recorders = _latencies(env, submits, schedule, seed)
        for app, recorder in recorders.items():
            result.add_row(
                system=system,
                app=app,
                mean_ms=recorder.mean * 1e3,
                p99_ms=recorder.p99 * 1e3,
                rel_variance_pct=recorder.relative_variance(),
                requests=recorder.count,
            )
    history = dandelion_worker.allocator.allocation_history
    if history:
        comm_cores = [comm for _t, _compute, comm in history]
        result.note(
            f"dandelion control plane: comm cores ranged "
            f"{min(comm_cores)}..{max(comm_cores)} across the run "
            f"({len(dandelion_worker.allocator.reassignments)} re-assignments; "
            "paper: scales from 1 to 4 I/O cores during the logproc burst)"
        )
    dandelion_rows = [r for r in result.rows if r["system"] == "dandelion"]
    for row in dandelion_rows:
        others = [
            r for r in result.rows
            if r["app"] == row["app"] and r["system"] != "dandelion"
        ]
        if all(row["rel_variance_pct"] < other["rel_variance_pct"] for other in others):
            result.note(f"dandelion has the lowest relative variance for {row['app']}")
    result.note(
        "paper: Dandelion rel. variance 1.30% (compression) / 2.87% (logproc) "
        "vs FC 389.6% / 1495.17% and WT 6.11% / 79.2%; Dandelion avg 18.23 ms "
        "(compression) and 27.92 ms (logproc)"
    )
    return result
