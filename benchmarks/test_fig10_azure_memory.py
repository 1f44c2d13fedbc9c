"""Fig 10: Azure trace — Dandelion vs Firecracker+Knative memory and p99."""

from repro.experiments import run_fig10

from conftest import run_and_render


def test_fig10_azure_trace(benchmark):
    result = run_and_render(benchmark, run_fig10, duration_seconds=900.0)
    dandelion = result.column("dandelion_mib")
    firecracker = result.column("firecracker_mib")
    # Dandelion commits a small fraction of Firecracker's memory at
    # every sampled instant after warmup (paper: 4% on average).
    for d, f in list(zip(dandelion, firecracker))[2:]:
        assert d < 0.25 * f
    avg_d = sum(dandelion) / len(dandelion)
    avg_f = sum(firecracker) / len(firecracker)
    assert avg_d < 0.1 * avg_f  # >=90% memory savings (paper: 96%)
    # The notes carry the p99 comparison; Dandelion must not be slower.
    p99_note = next(n for n in result.notes if n.startswith("p99"))
    assert "reduction" in p99_note
