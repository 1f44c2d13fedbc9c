"""The committed-memory series, recorded on the test side.

A worker keeps only its current and peak committed bytes.  The
differential tests compare two runs' whole memory behaviour, so
:func:`install` swaps in a tracker that also records ``(time, bytes)``
at every change, the way the generator oracles swap in their runners.
"""

from repro import worker
from repro.dispatcher.memory import MemoryTracker


class RecordingMemoryTracker(MemoryTracker):
    """A :class:`MemoryTracker` that records its committed-bytes series:
    one sample at creation and one whenever the committed total changes."""

    __slots__ = ("times", "values")

    def __init__(self, env):
        super().__init__(env)
        self.times = [env.now]
        self.values = [0]

    def observe(self, context) -> None:
        super().observe(context)
        self._sample()

    def release(self, context) -> None:
        super().release(context)
        self._sample()

    def _sample(self) -> None:
        if self.current_bytes != self.values[-1]:
            self.times.append(self.env.now)
            self.values.append(self.current_bytes)


def install(monkeypatch) -> None:
    """Give every worker built from now on a recording tracker."""
    monkeypatch.setattr(worker, "MemoryTracker", RecordingMemoryTracker)
