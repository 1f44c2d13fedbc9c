"""Measurement primitives shared by every workload.

* :func:`calibrate` — the fixed pure-Python calibration kernel whose
  wall time normalises host-time metrics (see README, "Calibration").
  **Never change it**: every committed ``norm_us_per_inv`` is expressed
  in units of this kernel running in :data:`CALIB_REFERENCE_S`.
* :class:`Tracer` — in-memory spans around the public calls the harness
  makes, written out as Chrome-trace JSON after the run.
* :func:`quartiles`, :func:`digest` — the statistics and the canonical
  result hash every workload reports.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from contextlib import contextmanager
from heapq import heappop, heappush

__all__ = [
    "CALIB_REFERENCE_S",
    "calibrate",
    "collector_paused",
    "Tracer",
    "quartiles",
    "digest",
]

# A host on which the kernel below takes exactly this long is "reference
# speed"; norm = raw * (CALIB_REFERENCE_S / measured kernel wall).
CALIB_REFERENCE_S = 0.040
_CALIB_OPS = 40_000


def _calibration_kernel(ops: int) -> int:
    """Heap push/pop + generator ``send`` + dict store: the operation mix
    of the event kernel's hot loop, with no dependency on ``repro``."""

    def sink():
        store = {}
        while True:
            key = yield
            store[key & 1023] = key

    consumer = sink()
    next(consumer)
    heap: list = []
    state = 12345
    for index in range(ops):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heappush(heap, (state, index))
        if index & 1:
            consumer.send(heappop(heap)[0])
    return len(heap)


def calibrate() -> float:
    """Wall seconds of one calibration-kernel run (~0.04 s).

    The cyclic collector is off while it runs: the kernel allocates
    tuples, and a full collection triggered inside it would charge the
    kernel for traversing whatever heap the workload has built.
    """
    with collector_paused():
        begin = time.perf_counter()
        _calibration_kernel(_CALIB_OPS)
        return time.perf_counter() - begin


@contextmanager
def collector_paused():
    """Automatic cyclic GC off inside the block (restored after)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class Tracer:
    """Spans (name, start, end, parent id, run id) kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, **args):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "args": args,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def chrome_trace(self) -> dict:
        """The spans as Chrome-trace "complete" events (µs timestamps)."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": span["name"],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (span["start"] - origin) * 1e6,
                    "dur": (span["end"] - span["start"]) * 1e6,
                    "args": {
                        "id": span["id"],
                        "parent": span["parent"],
                        "run": span["run"],
                        **span["args"],
                    },
                }
                for span in self.spans
            ],
        }


def quartiles(values) -> dict:
    """``{"median", "q1", "q3", "n"}`` of a sample (n >= 1)."""
    values = list(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
    }


def digest(payload) -> str:
    """sha256 of the canonical JSON of ``payload`` (bytes are hex-encoded)."""

    def default(value):
        if isinstance(value, (bytes, bytearray, memoryview)):
            return bytes(value).hex()
        raise TypeError(f"not canonicalisable: {type(value).__name__}")

    text = json.dumps(payload, sort_keys=True, default=default)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
