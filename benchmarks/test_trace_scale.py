"""Trace-scale benchmark: wall clock of the sharded replay at 10×.

Re-measures the reduced (10×) matrix — ~70k invocations through the
sharded kernel at 1/2/4 shards — and asserts the shape the committed
``BENCH_trace_scale.json`` records: every configuration replays the
identical stream and clears the events/s floor.
"""

from repro.experiments.bench_trace_scale import FLOORS, trace_scale_matrix


def test_trace_scale_10x_matrix(benchmark):
    matrix = benchmark.pedantic(
        trace_scale_matrix, args=(10.0,), rounds=1, iterations=1
    )
    assert {row["invocations"] for row in matrix["rows"]} == {
        matrix["rows"][0]["invocations"]
    }
    assert matrix["rows"][0]["invocations"] > 50_000
    print()
    for row in matrix["rows"]:
        label = f"lean-{row['shards']}-{row['executor']}"
        print(f"{label:32s} {row['wall_seconds']:8.2f}s")
        assert row["events_per_second"] >= FLOORS["events_per_second_min"]
