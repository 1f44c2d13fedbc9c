#!/usr/bin/env python3
"""Azure-trace replay: the memory-elasticity headline (Figs 1 and 10).

Replays the same synthetic Azure-Functions-like invocation stream on
(a) Dandelion with per-request contexts and (b) Firecracker MicroVMs
under Knative-style keep-alive autoscaling, then compares committed
memory and tail latency.  The replay is the bundled ``fig10_full``
scenario at the paper's 100-function sample scale on one 16-core node.

Run:  python examples/azure_trace_replay.py
"""

from repro.scenario import load_spec, run_scenario

MiB = 1 << 20


def main():
    spec = load_spec("fig10_full").with_overrides({
        "trace.scale": 1.0,
        "trace.duration_seconds": 900.0,
        "fleet.workers": 1,
        "fleet.cores": 16,
    })
    reports = {
        platform: run_scenario(
            spec.with_overrides({"fleet.platform": platform})
        ).report
        for platform in ("dandelion", "faas")
    }
    dandelion, firecracker = reports["dandelion"], reports["faas"]
    print(f"trace: {round(spec.trace.functions_base * spec.trace.scale)} functions, "
          f"{dandelion.routed} invocations over {spec.trace.duration_seconds:.0f} s "
          f"({dandelion.routed / spec.trace.duration_seconds:.1f} rps average)\n")

    for platform, report in reports.items():
        cold = 1.0 if platform == "dandelion" else report.cold_starts / report.completed
        print(f"{platform:>10}: "
              f"avg committed {report.committed_mean_bytes / MiB:8.1f} MiB | "
              f"peak (60 s grid) {max(report.committed_grid) / MiB:8.1f} MiB | "
              f"p99 latency {report.latency_percentile(99) * 1e3:7.1f} ms | "
              f"cold {cold * 100:5.1f}%")

    savings = 100 * (1 - dandelion.committed_mean_bytes / firecracker.committed_mean_bytes)
    over = firecracker.committed_mean_bytes / max(1, firecracker.active_mean_bytes)
    print(f"\nKnative over-provisions {over:.0f}x more memory than active demand (paper: 16x)")
    print(f"Dandelion commits {savings:.1f}% less memory on average (paper: 96%)")


if __name__ == "__main__":
    main()
