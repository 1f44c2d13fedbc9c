"""Seeded worker-level fault injection (§6.1 fault tolerance).

:class:`WorkerFaultInjector` drives two fault domains on a
:class:`~repro.cluster.manager.ClusterManager`:

* **Fail-stop crash/restore cycles** — each worker lives for an
  exponentially distributed time-to-failure (MTTF), fail-stops, stays
  down for an exponentially distributed time-to-repair (MTTR), and is
  then restored as a fresh node with registrations replayed.  The
  injector never takes down the last healthy worker (it skips that
  cycle): a total fleet outage would measure the injector, not the
  platform.
* **Limp (gray-failure) cycles** — optionally, workers periodically
  degrade to ``1/limp_severity`` of nominal engine throughput for a
  while and then recover, without ever leaving the healthy ring.  This
  is the limplock regime fail-stop detection cannot see; it exercises
  the latency-based health scoring and hedging defenses
  (docs/fault_tolerance.md).

Every draw comes from a per-worker :class:`~repro.sim.distributions.Rng`
stream forked from one seed, so a fault schedule is reproducible and
independent of how worker lifecycles interleave.  Limp streams use a
disjoint fork salt range, so enabling limp cycles leaves the crash
schedule of an existing experiment untouched.
"""

from __future__ import annotations

from ..sim.distributions import Rng

__all__ = ["WorkerFaultInjector"]

# Fork-salt offset for limp streams: crash streams use salts 1..N, limp
# streams 1001..1000+N, so the two schedules never share a stream.
_LIMP_SALT_OFFSET = 1000


class WorkerFaultInjector:
    """Drives seeded MTTF/MTTR fail-stop (and optional limp) cycles."""

    def __init__(
        self,
        cluster,
        mttf_seconds: float,
        mttr_seconds: float,
        seed: int = 0,
        limp_mttf_seconds: float = 0.0,
        limp_duration_seconds: float = 0.0,
        limp_severity: float = 1.0,
    ):
        if mttf_seconds <= 0 or mttr_seconds <= 0:
            raise ValueError("MTTF and MTTR must be positive")
        limp_enabled = limp_mttf_seconds > 0
        if limp_enabled and limp_duration_seconds <= 0:
            raise ValueError("limp cycles need a positive limp_duration_seconds")
        if limp_severity < 1.0:
            raise ValueError("limp_severity must be >= 1.0")
        self.cluster = cluster
        self.mttf_seconds = mttf_seconds
        self.mttr_seconds = mttr_seconds
        self.limp_mttf_seconds = limp_mttf_seconds
        self.limp_duration_seconds = limp_duration_seconds
        self.limp_severity = limp_severity
        self.crashes_injected = 0
        self.restores_performed = 0
        self.crashes_skipped = 0
        self.restores_skipped = 0
        self.limps_injected = 0
        self.limps_cleared = 0
        self.limps_skipped = 0
        # Each life is a chain of scheduled calls, started one zero-delay
        # hop after construction.
        rng = Rng(seed)
        call_later = cluster.env.call_later
        for index in range(cluster.worker_count):
            call_later(0, self._later, mttf_seconds, self._crash, index, rng.fork(index + 1))
        if limp_enabled and limp_severity > 1.0:
            for index in range(cluster.worker_count):
                salt = _LIMP_SALT_OFFSET + index
                call_later(0, self._later, limp_mttf_seconds, self._limp, index, rng.fork(salt))

    def _later(self, mean: float, step, index: int, rng: Rng) -> None:
        """Call ``step(index, rng)`` an exponential draw of ``mean`` from now."""
        self.cluster.env.call_later(rng.exponential(mean), step, index, rng)

    def _crash(self, index: int, rng: Rng) -> None:
        cluster = self.cluster
        if cluster.is_healthy(index) and cluster.healthy_worker_count > 1:
            cluster.fail_worker(index)
            self.crashes_injected += 1
            self._later(self.mttr_seconds, self._restore, index, rng)
            return
        # A worker someone else (a test, another injector) already
        # failed just waits out the cycle; the last healthy one is spared.
        if cluster.is_healthy(index):
            self.crashes_skipped += 1
        self._later(self.mttf_seconds, self._crash, index, rng)

    def _restore(self, index: int, rng: Rng) -> None:
        if self.cluster.is_healthy(index):
            # An external actor restored the worker during the MTTR wait
            # (and maybe re-failed and re-restored it); restoring again
            # would raise on a healthy worker, so skip this restore.
            self.restores_skipped += 1
        else:
            self.cluster.restore_worker(index)
            self.restores_performed += 1
        self._later(self.mttf_seconds, self._crash, index, rng)

    def _limp(self, index: int, rng: Rng) -> None:
        cluster = self.cluster
        # Crashed workers can't limp (fail-stop has priority), and one
        # already limping was degraded by an external actor.
        if not cluster.is_healthy(index) or cluster.limp_factor(index) > 1.0:
            self.limps_skipped += 1
            self._later(self.limp_mttf_seconds, self._limp, index, rng)
            return
        cluster.limp_worker(index, self.limp_severity)
        self.limps_injected += 1
        self._later(self.limp_duration_seconds, self._recover, index, rng)

    def _recover(self, index: int, rng: Rng) -> None:
        cluster = self.cluster
        # The worker may have crashed (and been restored as a fresh,
        # non-limping node) while degraded; only clear a limp in force.
        if cluster.is_healthy(index) and cluster.limp_factor(index) > 1.0:
            cluster.clear_limp(index)
            self.limps_cleared += 1
        self._later(self.limp_mttf_seconds, self._limp, index, rng)
