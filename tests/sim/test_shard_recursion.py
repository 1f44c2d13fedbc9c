"""ShardSim's FIFO-core workers against the event-heap kernel they replaced.

``heap_oracle.HeapShardSim`` is the per-shard event heap both trace
workers ran on before (completions and keep-alive timers as heap
entries, deliveries merged against the heap head under reserved
sequence numbers).  Substituted for ``ShardSim`` in the coordinator, it
must give the same ``summary()`` — ``events`` included — for both
platforms, with few enough cores that requests queue.
"""

import json
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.sharded import ShardedConfig, coordinator, run_sharded_replay
from repro.sim.sharded.shard import ShardSim
from repro.trace.stream import streamed_trace

from .heap_oracle import HeapShardSim


def _summary(shard_class, trace_seed, **config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coordinator, "ShardSim", shard_class)
        trace = streamed_trace(
            function_count=40, duration_seconds=20.0, total_rps=12.0, seed=trace_seed
        )
        report = run_sharded_replay(trace, ShardedConfig(**config))
    return json.dumps(report.summary(), sort_keys=True)


@settings(max_examples=25, deadline=None)
@given(
    trace_seed=st.integers(0, 2**16),
    platform=st.sampled_from(["dandelion", "faas"]),
    workers=st.integers(1, 3),
    cores=st.integers(1, 4),
    keep_alive=st.sampled_from([0.0, 5.0, 75.0]),
    shards=st.integers(1, 3),
)
def test_recursion_matches_the_heap_kernel(
    trace_seed, platform, workers, cores, keep_alive, shards
):
    config = dict(
        workers=workers, cores_per_worker=cores, shards=shards,
        platform=platform, keep_alive_seconds=keep_alive,
    )
    recursion = _summary(ShardSim, trace_seed, **config)
    assert recursion == _summary(HeapShardSim, trace_seed, **config)


def _one_worker(shard_class, deliveries, end, **config):
    shard_config = {
        **asdict(ShardedConfig(workers=1, **config)),
        "duration_seconds": end,
        "memory_of": [64 * 1024 * 1024],
    }
    sim = shard_class((0,), shard_config)
    sim.run_window(deliveries, end)
    return sim


def test_a_queued_start_reuses_the_sandbox_its_keep_alive_reaps_that_instant():
    # Tie rule: the first request completes at c, its sandbox's
    # keep-alive timer (0 s) fires at c, and the queued second request
    # starts at c.  Completions before the start, timers after it: the
    # start reuses the warm sandbox.
    deliveries = [[(0.0, 0, 1.0, 0.0), (0.1, 0, 1.0, 0.1)]]
    for shard_class in (ShardSim, HeapShardSim):
        sim = _one_worker(
            shard_class, deliveries, 10.0,
            platform="faas", cores_per_worker=1, keep_alive_seconds=0.0,
        )
        (worker,) = sim.final_summary()["workers"]
        assert worker["completed"] == 2
        assert worker["cold_starts"] == 1


def test_a_completion_popped_early_is_reported_in_its_own_window():
    # One core, two requests in the first window: the second starts at
    # the first one's completion (1.001 s), past the 0.5 s window end,
    # and completes at 2.002 s.  Each latency arrives in the window
    # that contains its completion, and both stay outstanding until then.
    deliveries = [[(0.0, 0, 1.0, 0.0), (0.1, 0, 1.0, 0.1)]]
    sim = _one_worker(ShardSim, deliveries, 0.5, platform="dandelion", cores_per_worker=1)
    assert (sim.outstanding(), sim.drain_latencies()) == ([2], [])
    sim.run_window([[]], 1.5)
    assert (sim.outstanding(), sim.drain_latencies()) == ([1], [1.001])
    sim.run_window([[]], 2.5)
    assert (sim.outstanding(), sim.drain_latencies()) == ([0], [2.002 - 0.1])
    assert sim.events == 4
