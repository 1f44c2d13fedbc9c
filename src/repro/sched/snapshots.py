"""The immutable routing view consumed by :mod:`repro.sched.routing`.

A :class:`ClusterSnapshot` is the *decision input* for one routing
choice (§5): the healthy worker ring, per-worker in-flight counts, and
warm-binary locality signals for the invoked composition.  Snapshots
are built on the hot path, so construction must be O(1) — the
expensive parts (the healthy-index ring, per-worker counters,
warm-binary sets) are references to state the cluster manager
maintains incrementally, never copies.  Policies must treat every
field as frozen: mutating a snapshot (or the containers it references)
is a contract violation and would corrupt the cluster manager that
lent the view.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["ClusterSnapshot"]

_EMPTY_SET: frozenset = frozenset()

_NAN = float("nan")


class ClusterSnapshot:
    """Routing view over a worker fleet.

    ``healthy`` is the *shared* tuple of healthy worker indices the
    cluster manager maintains incrementally on fail/restore/add — the
    fault-free fast path hands the same tuple to every decision, so
    building a snapshot is one small allocation, not an O(workers)
    scan.  ``worker_count`` is the total fleet size (the stable index
    ring policies rotate over); unhealthy indices stay in the ring so
    a fleet-size change cannot shift a rotation's phase.

    The gray-failure extension adds three optional, equally-shared
    references: ``preferred`` (healthy AND not latency-quarantined —
    another incrementally-maintained ring), ``scores`` (per-worker
    completion-latency EWMAs) and ``quarantined`` (per-worker flags).
    Deployments without latency health leave them at their defaults
    and every policy behaves exactly as before: ``candidates`` falls
    back to ``healthy``.
    """

    __slots__ = (
        "healthy",
        "worker_count",
        "composition",
        "composition_functions",
        "_health",
        "_in_flight",
        "_warm_of",
        "preferred",
        "_scores",
        "_quarantined",
    )

    def __init__(
        self,
        healthy: tuple,
        worker_count: int,
        health,
        in_flight,
        composition: Optional[str] = None,
        composition_functions: tuple = (),
        warm_of=None,
        preferred: Optional[tuple] = None,
        scores=None,
        quarantined=None,
    ):
        self.healthy = healthy
        self.worker_count = worker_count
        self.composition = composition
        self.composition_functions = composition_functions
        self._health = health
        self._in_flight = in_flight
        self._warm_of = warm_of
        self.preferred = healthy if preferred is None else preferred
        self._scores = scores
        self._quarantined = quarantined

    @property
    def candidates(self) -> tuple:
        """Indices policies should route to: preferred, else the
        least-bad fallback (every healthy worker) when the whole fleet
        is quarantined — a degraded fleet must still take traffic."""
        return self.preferred or self.healthy

    def is_healthy(self, index: int) -> bool:
        return self._health[index]

    def is_quarantined(self, index: int) -> bool:
        """True when latency-based health has sidelined this worker."""
        if self._quarantined is None:
            return False
        return self._quarantined.get(index, False)

    def is_routable(self, index: int) -> bool:
        """Healthy and not quarantined."""
        return self._health[index] and not self.is_quarantined(index)

    def latency_score(self, index: int) -> float:
        """Completion-latency EWMA for the worker (NaN when unknown)."""
        if self._scores is None:
            return _NAN
        return self._scores.get(index, _NAN)

    def in_flight(self, index: int) -> int:
        return self._in_flight[index]

    def warm_functions(self, index: int):
        """Set of function binaries warm (RAM-cached) on this worker."""
        if self._warm_of is None:
            return _EMPTY_SET
        return self._warm_of(index)

    def warm_count(self, index: int) -> int:
        """How many of the invoked composition's functions are warm."""
        functions = self.composition_functions
        if not functions:
            return 0
        warm = self.warm_functions(index)
        if not warm:
            return 0
        return sum(1 for name in functions if name in warm)

    def __repr__(self) -> str:
        return (
            f"ClusterSnapshot({len(self.healthy)}/{self.worker_count} healthy, "
            f"composition={self.composition!r})"
        )
