"""The injector's scheduled-call lives against their generator oracle
(``injector_oracle.py``).

Each generator step maps to one heap entry at the same point (the
``Initialize`` hop to a zero-delay call, each ``yield timeout(d)`` to a
call ``d`` later, and a life never ends), so over any horizon the two
must apply the same crashes, restores, limps and clears at the same
instants, count the same skips, and schedule the same number of heap
entries.  An external actor failing, restoring, limping and clearing
workers on its own schedule drives the skip branches.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterManager, WorkerFaultInjector
from repro.sim import Environment
from repro.worker import WorkerConfig

from .injector_oracle import GeneratorFaultInjector

HORIZON = 0.5
COUNTERS = (
    "crashes_injected", "restores_performed", "crashes_skipped", "restores_skipped",
    "limps_injected", "limps_cleared", "limps_skipped",
)


class LogCluster:
    """The fleet as the injector sees it, logging every change applied."""

    def __init__(self, env, workers):
        self.env = env
        self.worker_count = workers
        self.healthy = [True] * workers
        self.limp = [1.0] * workers
        self.log = []

    @property
    def healthy_worker_count(self):
        return sum(self.healthy)

    def is_healthy(self, index):
        return self.healthy[index]

    def limp_factor(self, index):
        return self.limp[index]

    def fail_worker(self, index):
        assert self.healthy[index]
        self.healthy[index] = False
        self.log.append((self.env.now, "fail", index))

    def restore_worker(self, index):
        # A restored worker is a fresh node: it does not limp.
        assert not self.healthy[index]
        self.healthy[index] = True
        self.limp[index] = 1.0
        self.log.append((self.env.now, "restore", index))

    def limp_worker(self, index, multiplier):
        assert self.healthy[index]
        self.limp[index] = multiplier
        self.log.append((self.env.now, "limp", index))

    def clear_limp(self, index):
        self.limp[index] = 1.0
        self.log.append((self.env.now, "clear", index))

    def external(self, kind, index):
        if kind == "fail" and self.healthy[index]:
            self.fail_worker(index)
        elif kind == "restore" and not self.healthy[index]:
            self.restore_worker(index)
        elif kind == "limp" and self.healthy[index]:
            self.limp_worker(index, 2.0)
        elif kind == "clear":
            self.clear_limp(index)


def _schedule(injector_class, workers, external, **params):
    env = Environment()
    cluster = LogCluster(env, workers)
    for when, kind, index in external:
        env.call_later(when, cluster.external, kind, index % workers)
    injector = injector_class(cluster, **params)
    env.run(until=HORIZON)
    counters = tuple(getattr(injector, name) for name in COUNTERS)
    return cluster.log, counters, env.events_scheduled


_mean = st.floats(0.002, 0.2, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    workers=st.integers(1, 4),
    mttf=_mean,
    mttr=_mean,
    seed=st.integers(0, 2**16),
    limp_mttf=st.one_of(st.just(0.0), _mean),
    limp_duration=_mean,
    limp_severity=st.sampled_from([1.0, 1.5, 4.0]),
    external=st.lists(
        st.tuples(
            st.floats(0.0, HORIZON, allow_nan=False),
            st.sampled_from(["fail", "restore", "limp", "clear"]),
            st.integers(0, 3),
        ),
        max_size=12,
    ),
)
def test_scheduled_lives_match_the_generator_oracle(
    workers, mttf, mttr, seed, limp_mttf, limp_duration, limp_severity, external
):
    params = dict(
        mttf_seconds=mttf, mttr_seconds=mttr, seed=seed, limp_mttf_seconds=limp_mttf,
        limp_duration_seconds=limp_duration, limp_severity=limp_severity,
    )
    product = _schedule(WorkerFaultInjector, workers, external, **params)
    assert product == _schedule(GeneratorFaultInjector, workers, external, **params)


def _real_cluster_lives(injector_class, workers, **params):
    cluster = ClusterManager(
        worker_count=workers,
        worker_config=WorkerConfig(total_cores=2, control_plane_enabled=False),
    )
    before = cluster.env.events_scheduled
    injector = injector_class(cluster, mttf_seconds=0.02, mttr_seconds=0.01, seed=5, **params)
    cluster.env.run(until=HORIZON)
    counters = tuple(getattr(injector, name) for name in COUNTERS)
    return cluster.env.events_scheduled - before, counters


def test_one_worker_life_event_pin():
    # The last healthy worker is spared: every crash draw is a skip,
    # one heap entry each after the zero-delay start.
    pin = _real_cluster_lives(WorkerFaultInjector, 1)
    assert pin == _real_cluster_lives(GeneratorFaultInjector, 1)
    assert pin == (34, (0, 0, 32, 0, 0, 0, 0))


def test_two_worker_lives_with_limp_event_pin():
    limp = dict(limp_mttf_seconds=0.03, limp_duration_seconds=0.01, limp_severity=4.0)
    pin = _real_cluster_lives(WorkerFaultInjector, 2, **limp)
    assert pin == _real_cluster_lives(GeneratorFaultInjector, 2, **limp)
    assert pin == (174, (26, 26, 9, 0, 24, 22, 5))
