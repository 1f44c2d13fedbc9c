"""Per-layer attribution of one profiled run.

A layer is a ``repro.<package>`` name.  Inside the run phase layers
interleave per callback, so spans cannot separate them; instead the run
executes under ``cProfile`` and every function's *self* time is bucketed
by the package that owns its file.  Builtins and stdlib/numpy functions
own no layer: their self time goes to the nearest ``repro`` caller,
found through the profile's caller→callee edges (a foreign function
called from several layers is split by the time each edge carried).  By
construction the layer self times sum to the profiled total; whatever
reaches no ``repro`` caller stays ``unattributed`` and is reported
through ``bench.attributed_share``.
"""

from __future__ import annotations

import os
from collections import defaultdict

__all__ = ["LAYERS", "attribute"]

# `other` = backends, frontend, worker.py, the harness's own driver
# code, and unattributed time.
LAYERS = (
    "sim", "sim.sharded", "data", "composition", "functions", "dispatcher",
    "engines", "sched", "controlplane", "cluster", "net", "trace", "scenario",
    "baselines", "query", "apps", "other",
)

_UNATTRIBUTED = "unattributed"
_HARNESS_ROOT = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _layer_of(code, package_root: str):
    """Layer owning ``code``, or ``None`` for foreign code (builtins are
    plain strings in the profile; stdlib/numpy live outside the roots)."""
    filename = getattr(code, "co_filename", None)
    if filename is None:
        return None
    if filename.startswith(_HARNESS_ROOT):
        return "other"
    if not filename.startswith(package_root):
        return None
    parts = filename[len(package_root):].split(os.sep)
    if parts[:2] == ["sim", "sharded"]:
        return "sim.sharded"
    return parts[0] if len(parts) > 1 and parts[0] in LAYERS else "other"


def attribute(stats, package_root: str) -> dict:
    """``profile.getstats()`` → ``{"self_s": {layer: s}, "calls":
    {layer: n}, "total_s": s, "attributed_share": x}``."""
    package_root = os.path.abspath(package_root) + os.sep
    owner = {}
    callers = defaultdict(list)  # callee -> [(caller, edge)]
    for entry in stats:
        owner[entry.code] = _layer_of(entry.code, package_root)
        for edge in entry.calls or ():
            callers[edge.code].append((entry.code, edge))

    shares: dict = {}  # foreign code -> {layer: share of its callers' time}

    def share_of(code):
        if code in shares:
            return shares[code]
        shares[code] = {_UNATTRIBUTED: 1.0}  # cycle guard while computing
        weights = defaultdict(float)
        for caller, edge in callers[code]:
            weight = edge.totaltime or 1e-12
            if owner[caller] is not None:
                weights[owner[caller]] += weight
            else:
                for layer, share in share_of(caller).items():
                    weights[layer] += weight * share
        total = sum(weights.values())
        if total > 0:
            shares[code] = {layer: w / total for layer, w in weights.items()}
        return shares[code]

    self_s = defaultdict(float)
    calls = defaultdict(int)
    for entry in stats:
        layer = owner[entry.code]
        if layer is not None:
            self_s[layer] += entry.inlinetime
            calls[layer] += entry.callcount
            continue
        attributed = 0.0
        for caller, edge in callers[entry.code]:
            attributed += edge.inlinetime
            if owner[caller] is not None:
                self_s[owner[caller]] += edge.inlinetime
            else:
                for target, share in share_of(caller).items():
                    self_s[target] += edge.inlinetime * share
        # Calls from outside the profiled region have no edge.
        self_s[_UNATTRIBUTED] += max(0.0, entry.inlinetime - attributed)

    total = sum(self_s.values())
    unattributed = self_s.pop(_UNATTRIBUTED, 0.0)
    self_s["other"] += unattributed
    return {
        "self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS},
        "calls": {layer: calls.get(layer, 0) for layer in LAYERS},
        "total_s": total,
        "attributed_share": 1.0 - unattributed / total if total else 0.0,
    }
