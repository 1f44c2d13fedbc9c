"""Reference shard kernel for the replay differential in ``test_shard_recursion``.

The event-heap formulation of both trace workers that
:class:`~repro.sim.sharded.shard.ShardSim` used before its workers
became a FIFO-core recursion: one :class:`~repro.sim.core.Environment`
per shard, driven with packed ``(time, seq, worker, kind, a, b)`` heap
tuples, and each delivery merged against the heap head at the barrier
under a sequence number reserved in batch order.  Unlike
``classic_oracle.py`` it models the FaaS platform too (warm stacks and
keep-alive expiry timers), and its ``events`` count is the kernel's own
sequence counter, so the differential compares ``summary()`` whole.
"""

from collections import deque
from heapq import heappop, heappush
from operator import itemgetter

from repro.backends.costs import REPLAY_CREATION_SECONDS
from repro.baselines.specs import (
    FIRECRACKER_SNAPSHOT,
    KNATIVE_ORCHESTRATION_SECONDS,
    MICROVM_GUEST_OVERHEAD_BYTES,
    MiB,
)
from repro.sim.core import Environment
from repro.sim.sharded.shard import (
    GRID_STEP,
    PLATFORM_DANDELION,
    ShardSim,
    _StepSeries,
)

_COMPLETE = 0
_EXPIRE = 1


class _HeapDandelionWorker:
    def __init__(self, env, cores, memory_of, duration):
        self.env = env
        self.cores_free = cores
        self.queue = deque()
        self.committed = 0
        self.memory_of = memory_of
        self.latencies = []
        self.series = _StepSeries(duration, GRID_STEP)
        self.completed = 0

    def _start(self, fn_index, duration, arrival):
        self.cores_free -= 1
        env = self.env
        self.committed += self.memory_of[fn_index]
        self.series.record(env._now, self.committed)
        seq = env._seq
        env._seq = seq + 1
        heappush(
            env._queue,
            (
                env._now + (REPLAY_CREATION_SECONDS + duration),
                seq, self, _COMPLETE, fn_index, arrival,
            ),
        )

    def _complete(self, fn_index, arrival):
        env = self.env
        self.committed -= self.memory_of[fn_index]
        self.series.record(env._now, self.committed)
        self.latencies.append(env._now - arrival)
        self.completed += 1
        self.cores_free += 1
        if self.queue:
            self._start(*self.queue.popleft())


class _HeapSandbox:
    def __init__(self, fn_index):
        self.fn_index = fn_index
        self.idle_token = 0
        self.idle = False
        self.dead = False


class _HeapFaasWorker:
    def __init__(self, env, cores, memory_of, duration, keep_alive):
        self.env = env
        self.cores_free = cores
        self.queue = deque()
        self.committed = 0
        self.active = 0
        self.memory_of = memory_of
        self.keep_alive = keep_alive
        self.latencies = []
        self.series = _StepSeries(duration, GRID_STEP)
        self.active_series = _StepSeries(duration, GRID_STEP)
        self.completed = 0
        self.cold_starts = 0
        self.idle_of = {}

    def _start(self, fn_index, duration, arrival):
        self.cores_free -= 1
        env = self.env
        footprint = self.memory_of[fn_index] + MICROVM_GUEST_OVERHEAD_BYTES
        sandbox = None
        stack = self.idle_of.get(fn_index)
        while stack:
            candidate = stack.pop()
            if not candidate.dead:
                sandbox = candidate
                break
        if sandbox is None:
            sandbox = _HeapSandbox(fn_index)
            self.cold_starts += 1
            self.committed += footprint
            self.series.record(env._now, self.committed)
            setup = (
                FIRECRACKER_SNAPSHOT.cold_start_seconds + KNATIVE_ORCHESTRATION_SECONDS
            ) + FIRECRACKER_SNAPSHOT.cold_paging_seconds_per_mib * (footprint / MiB)
        else:
            setup = FIRECRACKER_SNAPSHOT.hot_start_seconds
        sandbox.idle = False
        sandbox.idle_token += 1
        self.active += footprint
        self.active_series.record(env._now, self.active)
        seq = env._seq
        env._seq = seq + 1
        heappush(
            env._queue,
            (
                env._now + (setup + duration * FIRECRACKER_SNAPSHOT.compute_slowdown),
                seq, self, _COMPLETE, sandbox, arrival,
            ),
        )

    def _complete(self, sandbox, arrival):
        env = self.env
        footprint = self.memory_of[sandbox.fn_index] + MICROVM_GUEST_OVERHEAD_BYTES
        self.active -= footprint
        self.active_series.record(env._now, self.active)
        self.latencies.append(env._now - arrival)
        self.completed += 1
        sandbox.idle = True
        sandbox.idle_token += 1
        self.idle_of.setdefault(sandbox.fn_index, []).append(sandbox)
        seq = env._seq
        env._seq = seq + 1
        heappush(
            env._queue,
            (env._now + self.keep_alive, seq, self, _EXPIRE, sandbox, sandbox.idle_token),
        )
        self.cores_free += 1
        if self.queue:
            self._start(*self.queue.popleft())

    def _expire(self, sandbox, token):
        if sandbox.idle and not sandbox.dead and sandbox.idle_token == token:
            sandbox.dead = True
            self.committed -= self.memory_of[sandbox.fn_index] + MICROVM_GUEST_OVERHEAD_BYTES
            self.series.record(self.env._now, self.committed)


class HeapShardSim:
    """Same interface as :class:`ShardSim`, on one event heap per shard."""

    def __init__(self, worker_indices, config: dict):
        self.env = Environment()
        self.worker_indices = tuple(worker_indices)
        self.cores = config["cores_per_worker"]
        duration = config["duration_seconds"]
        memory_of = config["memory_of"]
        if config["platform"] == PLATFORM_DANDELION:
            make = lambda: _HeapDandelionWorker(self.env, self.cores, memory_of, duration)  # noqa: E731
        else:
            make = lambda: _HeapFaasWorker(  # noqa: E731
                self.env, self.cores, memory_of, duration, config["keep_alive_seconds"]
            )
        self.workers = [make() for _ in self.worker_indices]
        self._pending = []

    def _fire(self, entry):
        self.env._now = entry[0]
        if entry[3] == _EXPIRE:
            entry[2]._expire(entry[4], entry[5])
        else:
            entry[2]._complete(entry[4], entry[5])

    def run_window(self, deliveries, end: float) -> None:
        env = self.env
        queue = env._queue
        pending = self._pending
        # A stable sort of the per-worker lists by delivery time gives
        # back the time-ordered shard batch the kernel took.
        batch = sorted(
            (
                (delivery, worker, fn_index, duration, arrival)
                for worker, routed in zip(self.workers, deliveries)
                for delivery, fn_index, duration, arrival in routed
            ),
            key=itemgetter(0),
        )
        for delivery, worker, fn_index, duration, arrival in batch:
            pending.append((delivery, env._seq, worker, fn_index, duration, arrival))
            env._seq += 1
        i = 0
        while i < len(pending) and pending[i][0] <= end:
            d_time, d_seq, worker = pending[i][:3]
            while queue and (queue[0][0], queue[0][1]) < (d_time, d_seq):
                self._fire(heappop(queue))
            env._now = d_time
            if worker.cores_free:
                worker._start(*pending[i][3:])
            else:
                worker.queue.append(pending[i][3:])
            i += 1
        del pending[:i]
        while queue and queue[0][0] <= end:
            self._fire(heappop(queue))
        env._now = end

    def outstanding(self) -> list[int]:
        return [(self.cores - w.cores_free) + len(w.queue) for w in self.workers]

    drain_latencies = ShardSim.drain_latencies
    final_summary = ShardSim.final_summary

    @property
    def events(self) -> int:
        return self.env._seq
