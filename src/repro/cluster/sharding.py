"""Worker-fleet partitioning for the sharded simulator.

A :class:`ShardPlan` assigns every worker of the fleet to exactly one
shard (round-robin, so shard loads stay balanced under the skewed
routing the trace produces) and provides the two merge directions the
cluster-manager boundary needs:

* :meth:`merge` — per-shard, local-worker-ordered value lists back into
  one global-worker-ordered list.  Every cross-shard aggregate (the
  outstanding counts behind the routing :class:`~repro.sched.snapshots.ClusterSnapshot`,
  the per-worker memory integrals of the final report) flows through
  this, which is what makes merged results independent of the shard
  count: values are combined in global worker order no matter how the
  workers were grouped.
* :meth:`workers_of` — the routing side: each shard takes the routed
  delivery lists of the workers it owns.
"""

from __future__ import annotations

__all__ = ["ShardPlan"]


class ShardPlan:
    """Static round-robin assignment of ``worker_count`` workers to shards."""

    __slots__ = ("worker_count", "shard_count", "_workers_of")

    def __init__(self, worker_count: int, shard_count: int):
        if worker_count < 1:
            raise ValueError("worker_count must be >= 1")
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        # Never spread fewer workers over more shards: empty shards
        # would idle at every barrier for nothing.
        self.shard_count = min(shard_count, worker_count)
        self.worker_count = worker_count
        self._workers_of = tuple(
            tuple(range(shard, worker_count, self.shard_count))
            for shard in range(self.shard_count)
        )

    def workers_of(self, shard: int) -> tuple:
        """Global worker indices owned by ``shard``, ascending."""
        return self._workers_of[shard]

    def merge(self, per_shard: "list[list]") -> list:
        """Merge per-shard local-worker-ordered lists into global order.

        ``per_shard[s][i]`` is the value for ``workers_of(s)[i]``; the
        result is indexed by global worker index.  The merge is pure
        reindexing — no arithmetic — so any value type goes through
        unchanged and the result is identical for every shard count.
        """
        if len(per_shard) != self.shard_count:
            raise ValueError(
                f"expected {self.shard_count} shard lists, got {len(per_shard)}"
            )
        merged: list = [None] * self.worker_count
        for shard, values in enumerate(per_shard):
            workers = self._workers_of[shard]
            if len(values) != len(workers):
                raise ValueError(
                    f"shard {shard} reported {len(values)} values for "
                    f"{len(workers)} workers"
                )
            for worker, value in zip(workers, values):
                merged[worker] = value
        return merged

    def __repr__(self) -> str:
        return f"ShardPlan({self.worker_count} workers over {self.shard_count} shards)"
