"""Latency-based worker health scoring — the gray-failure detector.

Fail-stop detection (the healthy-index ring) only catches workers that
*die*.  A limplock worker stays nominally healthy while serving every
request several times slower, so the cluster manager also keeps a
latency-based health score per worker: an exponentially weighted moving
average (EWMA) of recent per-worker completion latency, compared
against the mean of its *peers'* EWMAs (excluding the worker itself —
a fleet-wide average would be diluted by the very samples that should
trigger detection).  A worker whose score drifts more than
``QUARANTINE_FACTOR`` times its peers' is **quarantined** — routing
prefers other workers — and released again (with hysteresis, at
``RELEASE_FACTOR``) once its completions recover.  A worker is judged
only after ``MIN_SAMPLES`` completions.

Everything is maintained incrementally, O(1) per completion, the same
way the healthy-index ring is: no fleet rescans, no sorting, no
per-decision work.  A worker's quarantine flag is (re-)evaluated only
when one of *its* completions arrives; the spill-back in
:class:`~repro.sched.routing.GrayFailureAware` guarantees a quarantined
worker keeps receiving a trickle of traffic, so recovery is always
observed.

The tracker is deliberately free of randomness and wall clocks: scores
are a pure fold over the (deterministic, seeded) completion stream, so
detection — like everything else in the simulation — replays
identically from a seed.
"""

from __future__ import annotations

__all__ = ["LatencyHealthTracker"]

_NAN = float("nan")

# EWMA weight of the newest completion latency.
ALPHA = 0.2
# Quarantine above QUARANTINE_FACTOR x the peer baseline; release at or
# below RELEASE_FACTOR x (the gap between the two is the hysteresis).
QUARANTINE_FACTOR = 2.0
RELEASE_FACTOR = 1.4
# Completions a worker needs before its score is judged.
MIN_SAMPLES = 8


class LatencyHealthTracker:
    """Incremental per-worker completion-latency EWMA with quarantine.

    ``observe(index, latency)`` folds one completion in and returns
    ``True`` when the worker's quarantine flag flipped (the manager
    then refreshes its preferred-index ring — the only non-O(1) step,
    and it only runs on flips, which are rare by construction thanks to
    the ``RELEASE_FACTOR < QUARANTINE_FACTOR`` hysteresis band).
    """

    __slots__ = (
        "_scores",
        "_counts",
        "_scores_sum",
        "_active",
        "_quarantined",
        "quarantine_entries",
        "quarantine_exits",
    )

    def __init__(self):
        self._scores: dict[int, float] = {}
        self._counts: dict[int, int] = {}
        # Running sum of per-worker EWMAs plus the number of workers
        # with at least one sample: the peer baseline for worker i is
        # (sum - score_i) / (active - 1), maintained in O(1).
        self._scores_sum = 0.0
        self._active = 0
        self._quarantined: dict[int, bool] = {}
        self.quarantine_entries = 0
        self.quarantine_exits = 0

    # -- incremental updates (O(1) per completion) -------------------------

    def observe(self, index: int, latency: float) -> bool:
        """Fold one completion latency in; True iff the flag flipped."""
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        count = self._counts.get(index, 0)
        if count == 0:
            self._scores[index] = latency
            self._scores_sum += latency
            self._active += 1
        else:
            old = self._scores[index]
            new = old + ALPHA * (latency - old)
            self._scores[index] = new
            self._scores_sum += new - old
        self._counts[index] = count + 1
        return self._reevaluate(index)

    def _peer_baseline(self, index: int) -> float:
        """Mean of every *other* worker's EWMA (0 when alone)."""
        if self._active <= 1:
            return 0.0
        return (self._scores_sum - self._scores[index]) / (self._active - 1)

    def _reevaluate(self, index: int) -> bool:
        """Refresh one worker's quarantine flag; True iff it flipped."""
        quarantined = self._quarantined.get(index, False)
        baseline = self._peer_baseline(index)
        if self._counts.get(index, 0) < MIN_SAMPLES or baseline <= 0:
            verdict = False
        else:
            ratio = self._scores[index] / baseline
            if quarantined:
                verdict = ratio > RELEASE_FACTOR
            else:
                verdict = ratio > QUARANTINE_FACTOR
        if verdict == quarantined:
            return False
        self._quarantined[index] = verdict
        if verdict:
            self.quarantine_entries += 1
        else:
            self.quarantine_exits += 1
        return True

    def reset(self, index: int) -> bool:
        """Forget one worker's history (fail-stop/restore: fresh node).

        Returns ``True`` when the reset released a quarantine flag.
        """
        score = self._scores.pop(index, None)
        if score is not None:
            self._scores_sum -= score
            self._active -= 1
        self._counts.pop(index, None)
        if self._quarantined.pop(index, False):
            self.quarantine_exits += 1
            return True
        return False

    # -- read side (snapshot contract: O(1), no copies) --------------------

    def score(self, index: int) -> float:
        """Current latency EWMA for the worker (NaN before any sample)."""
        return self._scores.get(index, _NAN)

    def sample_count(self, index: int) -> int:
        return self._counts.get(index, 0)

    def is_quarantined(self, index: int) -> bool:
        return self._quarantined.get(index, False)

    @property
    def scores(self) -> dict:
        """Live index -> EWMA mapping (read-only by contract)."""
        return self._scores

    @property
    def quarantined(self) -> dict:
        """Live index -> flag mapping (read-only by contract)."""
        return self._quarantined

    def quarantined_count(self) -> int:
        return sum(1 for flag in self._quarantined.values() if flag)

    def __repr__(self) -> str:
        return f"LatencyHealthTracker(quarantined={self.quarantined_count()})"
