"""Committed-memory accounting for a worker node.

Dandelion "commits and consumes memory only while requests are actively
running since a new context is created for each request" (§7.8).  The
tracker observes every live memory context and keeps the worker's
current and peak committed bytes.
"""

from __future__ import annotations

from ..data.context import MemoryContext
from ..sim.core import Environment

__all__ = ["MemoryTracker"]


class MemoryTracker:
    """Tracks committed bytes across live memory contexts."""

    __slots__ = (
        "env",
        "_committed_by_context",
        "current_bytes",
        "peak_bytes",
    )

    def __init__(self, env: Environment):
        # The clock, for a subclass that records the committed series
        # over time (the differential tests do); this class keeps none.
        self.env = env
        self._committed_by_context: dict[int, int] = {}
        self.current_bytes = 0
        self.peak_bytes = 0

    def observe(self, context: MemoryContext) -> None:
        """Record a context's current committed size (new or updated)."""
        key = id(context)
        previous = self._committed_by_context.get(key, 0)
        now_committed = context.committed
        if now_committed == previous:
            return
        self._committed_by_context[key] = now_committed
        current = self.current_bytes + now_committed - previous
        self.current_bytes = current
        if current > self.peak_bytes:
            self.peak_bytes = current

    def release(self, context: MemoryContext) -> None:
        """A context has been freed; drop its contribution."""
        self.current_bytes -= self._committed_by_context.pop(id(context), 0)

    @property
    def live_context_count(self) -> int:
        return len(self._committed_by_context)
