"""Static scheduling hints from the dataflow cost analysis.

The composition analyzer (:mod:`repro.analysis.compositions`) distills
every composition into a :class:`~repro.analysis.compositions.
CompositionCostSummary` — critical-path seconds, max parallel width,
peak in-flight bytes — *before* a single invocation runs.  This module
is the consumption side: :class:`StaticHints` stores summaries by
composition name, and :class:`CostAware` is a routing policy that uses
them for width-aware placement (Funky-style device-aware orchestration
needs exactly this shape of per-stage static summary; see PAPERS.md).

The placement rule is deterministic bin packing:

- **Wide** compositions (static ``max_parallel_width`` at or above the
  threshold, or statically unbounded fan-out) bring their own
  parallelism; they route least-outstanding so their instances land on
  the emptiest worker.
- **Narrow** compositions (sequential chains) cannot use a whole idle
  worker; they *pack* onto the most-loaded routable worker that still
  has headroom (``pack_limit``), keeping empty workers free for wide
  work.  When every candidate is at the limit the policy degrades to
  least-outstanding, so packing never overloads.

``ClusterManager.register_composition`` feeds summaries to any policy
exposing ``ingest_summary`` — no coupling from the sched layer back
into the analysis package unless the policy is actually used.
"""

from __future__ import annotations

from typing import Optional

from .routing import ROUTING_POLICIES, RoutingPolicy, _least_outstanding_choice
from .snapshots import ClusterSnapshot

__all__ = ["StaticHints", "CostAware"]


class StaticHints:
    """Cost summaries by composition name (the policy's memory)."""

    __slots__ = ("_summaries",)

    def __init__(self):
        self._summaries: dict = {}

    def ingest(self, summary) -> None:
        self._summaries[summary.composition] = summary

    def get(self, composition_name):
        return self._summaries.get(composition_name)

    def __len__(self) -> int:
        return len(self._summaries)

    def __contains__(self, composition_name) -> bool:
        return composition_name in self._summaries


class CostAware(RoutingPolicy):
    """Width-aware bin packing over static cost summaries.

    Decisions are a pure function of (constructor arguments, ingested
    summaries, snapshot sequence): no RNG draw, ties broken by worker
    index, per the determinism rules in docs/scheduling.md.
    """

    __slots__ = ("hints", "wide_width", "pack_limit")

    name = "cost"

    def __init__(
        self,
        hints: Optional[StaticHints] = None,
        wide_width: int = 4,
        pack_limit: int = 8,
    ):
        if wide_width < 1:
            raise ValueError("wide_width must be >= 1")
        if pack_limit < 1:
            raise ValueError("pack_limit must be >= 1")
        self.hints = hints if hints is not None else StaticHints()
        self.wide_width = wide_width
        self.pack_limit = pack_limit

    # ClusterManager.register_composition probes for this method (duck
    # typed, getattr) and feeds every registered composition's summary.
    def ingest_summary(self, summary) -> None:
        self.hints.ingest(summary)

    def _is_wide(self, summary) -> bool:
        if summary is None:
            return True  # no hint: assume wide, spread conservatively
        if not summary.statically_bounded:
            return True  # unbounded fan-out: width is a lower bound
        return summary.max_parallel_width >= self.wide_width

    def decide(self, snapshot: ClusterSnapshot) -> Optional[int]:
        if not snapshot.healthy:
            return None
        pool = snapshot.candidates
        summary = self.hints.get(snapshot.composition)
        if self._is_wide(summary):
            return _least_outstanding_choice(snapshot, pool)
        # Narrow chain: pack onto the most-loaded worker with headroom.
        loads = snapshot._in_flight
        best = None
        best_load = None
        for index in pool:
            load = loads[index]
            if load >= self.pack_limit:
                continue
            if best is None or load > best_load or (load == best_load and index < best):
                best = index
                best_load = load
        if best is None:
            return _least_outstanding_choice(snapshot, pool)
        return best


# Registered here rather than in routing.py so the analysis-facing
# policy stays out of routing's import graph; the package __init__
# imports this module, and importing ``repro.sched.routing`` runs the
# package __init__ first, so name-based lookup always finds "cost".
ROUTING_POLICIES["cost"] = CostAware
