"""Fig 1: Knative autoscaling commits far more memory than active demand."""

from repro.experiments import run_fig01

from conftest import run_and_render


def test_fig01_committed_vs_active(benchmark):
    result = run_and_render(benchmark, run_fig01, duration_seconds=900.0)
    committed = result.column("committed_mib")
    active = result.column("active_mib")
    # Committed memory dwarfs active demand at every sampled instant
    # after warmup (paper: 16x on average).
    for c, a in list(zip(committed, active))[2:]:
        assert c > 3 * max(a, 1.0)
    average_ratio = (sum(committed) / len(committed)) / max(
        sum(active) / len(active), 1e-9
    )
    assert average_ratio > 8  # order-of-magnitude over-provisioning
