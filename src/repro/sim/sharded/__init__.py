"""Sharded trace replay: conservative time-window DES.

The cluster simulation is partitioned across shards of workers — each
worker a FIFO core pool that needs no event kernel — and synchronized by
conservative time windows at the cluster-manager boundary, all inside
one process.  See docs/simulation.md ("Sharded
execution") for the window and lookahead derivation, the determinism
rules, and why the shard count is a test oracle rather than a speed
knob.

Public surface:

* :func:`run_sharded_replay` — drive a :class:`~repro.trace.stream.StreamedTrace`
  through a sharded fleet and return a :class:`ShardedReplayReport`.
* :class:`ShardedConfig` — fleet/platform/window parameters.
"""

from .coordinator import ShardedConfig, ShardedReplayReport, run_sharded_replay

__all__ = ["ShardedConfig", "ShardedReplayReport", "run_sharded_replay"]
