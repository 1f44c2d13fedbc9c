"""Reference for the injector-equivalence property in ``test_injector_equivalence``.

The generator formulation of
:class:`~repro.cluster.faults.WorkerFaultInjector` the fault experiments
ran on before its lives became chains of scheduled calls: one generator
process per worker life and one per limp life, each looping over
``yield env.timeout(draw)``.  Kept as it ran, apart from its name.
"""

from repro.sim.distributions import Rng

_LIMP_SALT_OFFSET = 1000


class GeneratorFaultInjector:
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
        rng = Rng(seed)
        self._processes = [
            cluster.env.process(self._worker_life(index, rng.fork(index + 1)))
            for index in range(cluster.worker_count)
        ]
        if limp_enabled and limp_severity > 1.0:
            self._processes.extend(
                cluster.env.process(
                    self._limp_life(index, rng.fork(_LIMP_SALT_OFFSET + index))
                )
                for index in range(cluster.worker_count)
            )

    def _worker_life(self, index: int, rng: Rng):
        env = self.cluster.env
        while True:
            yield env.timeout(rng.exponential(self.mttf_seconds))
            if not self.cluster.is_healthy(index):
                # Someone else (a test, another injector) already failed
                # this worker; wait out the cycle and try again.
                continue
            if self.cluster.healthy_worker_count <= 1:
                self.crashes_skipped += 1
                continue
            self.cluster.fail_worker(index)
            self.crashes_injected += 1
            yield env.timeout(rng.exponential(self.mttr_seconds))
            if self.cluster.is_healthy(index):
                # An external actor (a test, a second injector, an
                # operator script) restored the worker — and possibly
                # re-failed and re-restored it — during our MTTR sleep.
                # Restoring again would raise on a healthy worker, so
                # skip this cycle's restore and keep the lifecycle loop
                # alive instead of crashing the injector process.
                self.restores_skipped += 1
                continue
            self.cluster.restore_worker(index)
            self.restores_performed += 1

    def _limp_life(self, index: int, rng: Rng):
        """Degrade/recover cycles: the worker stays up, just slower."""
        env = self.cluster.env
        cluster = self.cluster
        while True:
            yield env.timeout(rng.exponential(self.limp_mttf_seconds))
            if not cluster.is_healthy(index):
                # Crashed workers can't limp; fail-stop has priority.
                self.limps_skipped += 1
                continue
            if cluster.limp_factor(index) > 1.0:
                # Already limping (an external actor beat us to it).
                self.limps_skipped += 1
                continue
            cluster.limp_worker(index, self.limp_severity)
            self.limps_injected += 1
            yield env.timeout(rng.exponential(self.limp_duration_seconds))
            # The worker may have crashed (and been restored as a fresh,
            # non-limping node) while degraded; only clear a limp that
            # is still in force.
            if cluster.is_healthy(index) and cluster.limp_factor(index) > 1.0:
                cluster.clear_limp(index)
                self.limps_cleared += 1
