"""Per-worker engine throttle — the degraded-mode ("limplock") knob.

Real fleets degrade before they die: a worker with a failing disk or a
flaky NIC stays nominally healthy while serving every request several
times slower, poisoning cluster-wide tail latency (the "limplock"
regime).  :class:`EngineThrottle` is the one mutable cell that models
this: every engine on a worker shares the worker's throttle and
stretches its service times by ``multiplier``.

The throttle is deliberately dumb — a single float — so that the
fault-free fast path stays byte-identical: engines multiply service
times by ``multiplier`` only, and ``x * 1.0 == x`` exactly in IEEE
arithmetic, so a healthy worker's event stream is unchanged down to
the last bit.  Extra *events* (stretch timeouts on network exchanges)
are only scheduled when the worker is actually limping.
"""

from __future__ import annotations

__all__ = ["EngineThrottle"]


class EngineThrottle:
    """Shared throughput multiplier for all engines of one worker.

    ``multiplier`` >= 1.0 is the service-time stretch factor: 1.0 is a
    healthy worker, 4.0 is a worker whose CPU and network effectively
    run at a quarter of their nominal rate.  The cluster manager flips
    the value through :meth:`set` when a limp fault is injected or
    cleared; engines read it on every task.
    """

    __slots__ = ("multiplier",)

    def __init__(self):
        self.multiplier = 1.0

    def set(self, multiplier: float) -> None:
        if multiplier < 1.0:
            raise ValueError(f"throttle multiplier {multiplier} must be >= 1.0")
        self.multiplier = multiplier

    @property
    def limping(self) -> bool:
        return self.multiplier > 1.0

    def __repr__(self) -> str:
        return f"EngineThrottle({self.multiplier}x)"
