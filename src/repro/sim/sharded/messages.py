"""Per-window message codec between coordinator and shards.

Window traffic rides the v2 zero-parse wire format
(:func:`~repro.data.context.serialize_sets` /
:func:`~repro.data.lazy.parse_sets_lazy`): each message is one blob of
named sets whose payloads are packed fixed-width records.  The receiver
indexes the blob in O(sets) and touches only the items it needs that
window — the coordinator, for example, decodes every report's state
item at the barrier (routing needs the outstanding counts) but leaves
the ``latencies`` payload as an untouched lazy view until the end of
the run, so results cross the shard boundary at O(1) per window until
someone actually looks at them.

The hot-path messages are deliberately *flat* — one set, one or two
items, accessed positionally — because the codec runs twice per shard
per window: name-keyed lookups and multi-set footers are measurable at
2400 windows x shards (that is what the zero-parse format's positional
access is for).

Both executors (in-process serial and multiprocessing) round-trip the
same blobs through the same codec, so the byte path is identical and
codec behaviour is pinned by the shard-count invariance suite.

Record layouts (all little-endian, no padding):

* batch item (set ``window``): ``(index u4, end f8, flags u4)`` span
  followed by packed :data:`~repro.cluster.sharding.INVOCATION` records
  ``(delivery_time f8, worker u4, fn_index u4, duration f8, arrival f8)``
  exactly as the dispatcher emitted them;
* report state item (set ``report``): ``(index u4, end f8, events u8,
  stall_seconds f8)`` followed by one outstanding count ``u4`` per
  local worker, shard worker order;
* report latencies item: ``f8`` per completion of the window,
  completion order.
"""

from __future__ import annotations

import json
import struct

from ...cluster.sharding import INVOCATION
from ...data.context import serialize_sets
from ...data.items import DataItem, DataSet
from ...data.lazy import parse_sets_lazy

__all__ = [
    "INVOCATION",
    "encode_window_batch",
    "decode_window_batch",
    "encode_window_report",
    "decode_window_report",
    "encode_final_report",
    "decode_final_report",
]

_WINDOW = struct.Struct("<IdI")   # batch span: window index, window end, flags
_STATE = struct.Struct("<IdQd")   # report: index, end, events so far, stall so far

FLAG_FINISH = 1  # after this window, send the final report and exit


def _pack_f8(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def encode_window_batch(index: int, end: float, payload, finish: bool = False) -> bytes:
    """One coordinator→shard window: control span plus routed arrivals.

    ``payload`` is the wire-ready batch of packed
    :data:`~repro.cluster.sharding.INVOCATION` records exactly as the
    dispatcher emitted it
    (:meth:`~repro.dispatcher.windowed.WindowedRouter.route_window`).
    """
    flags = FLAG_FINISH if finish else 0
    return serialize_sets(
        [DataSet("window", [DataItem("batch", _WINDOW.pack(index, end, flags) + payload)])]
    )


def decode_window_batch(blob):
    """→ ``(index, end, finish, records)``; records is a list of tuples."""
    data = parse_sets_lazy(blob)[0][0].data
    index, end, flags = _WINDOW.unpack_from(data, 0)
    records = list(INVOCATION.iter_unpack(memoryview(data)[_WINDOW.size:]))
    return index, end, bool(flags & FLAG_FINISH), records


def encode_window_report(
    index: int, end: float, outstanding, latencies, events: int, stall_seconds: float
) -> bytes:
    """One shard→coordinator barrier report."""
    state = _STATE.pack(index, end, events, stall_seconds) + struct.pack(
        f"<{len(outstanding)}I", *outstanding
    )
    return serialize_sets(
        [
            DataSet(
                "report",
                [DataItem("state", state), DataItem("latencies", _pack_f8(latencies))],
            )
        ]
    )


def decode_window_report(blob):
    """→ ``(index, outstanding, latency_item, events, stall_seconds)``.

    ``latency_item`` is the *lazy* item view — callers that only need
    the barrier state never pay for the payload copy.
    """
    report = parse_sets_lazy(blob)[0]
    state = report[0].data
    index, _end, events, stall = _STATE.unpack_from(state, 0)
    count = (len(state) - _STATE.size) // 4
    outstanding = list(struct.unpack_from(f"<{count}I", state, _STATE.size))
    return index, outstanding, report[1], events, stall


def encode_final_report(summary: dict) -> bytes:
    """End-of-run per-shard aggregates (JSON: cold path, read once)."""
    payload = json.dumps(summary, sort_keys=True).encode("utf-8")
    return serialize_sets([DataSet("final", [DataItem("summary", payload)])])


def decode_final_report(blob) -> dict:
    return json.loads(parse_sets_lazy(blob)[0][0].data)
