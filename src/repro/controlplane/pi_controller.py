"""Proportional-Integral controller for core re-allocation (§5).

"The worker control plane dynamically balances CPU resources between
compute and communication engines to maximize application goodput.  It
periodically (every 30ms) measures the growth rates of the
communication and compute engines' queues.  It uses the difference
between their growth rates as an error signal for a
Proportional-Integral controller.  If the control signal is positive,
the control plane re-assigns a CPU core from the communication engine
type to the compute engine type.  If it is negative, it re-assigns a
core from the compute engine type to the communication engine type."
"""

from __future__ import annotations

__all__ = ["PiController"]

# Controller gains and actuation threshold.
PROPORTIONAL_GAIN = 1.0
INTEGRAL_GAIN = 0.1
# Signals within [-DEADBAND, +DEADBAND] cause no re-assignment,
# avoiding oscillation on balanced load.
DEADBAND = 0.5
# Anti-windup clamp on the integral term.
INTEGRAL_LIMIT = 50.0


class PiController:
    """Discrete PI controller over queue-growth error signals."""

    def __init__(self):
        self._integral = 0.0
        self.last_error = 0.0
        self.last_signal = 0.0

    def reset(self) -> None:
        self._integral = 0.0
        self.last_error = 0.0
        self.last_signal = 0.0

    @property
    def integral(self) -> float:
        return self._integral

    def update(self, compute_queue_growth: float, comm_queue_growth: float) -> int:
        """One control epoch; returns the actuation decision.

        +1: move a core from communication to compute engines.
        -1: move a core from compute to communication engines.
         0: no change.
        """
        error = compute_queue_growth - comm_queue_growth
        self._integral += error
        self._integral = max(-INTEGRAL_LIMIT, min(INTEGRAL_LIMIT, self._integral))
        signal = PROPORTIONAL_GAIN * error + INTEGRAL_GAIN * self._integral
        self.last_error = error
        self.last_signal = signal
        if signal > DEADBAND:
            # Acting bleeds the integral so a satisfied demand does not
            # keep pulling cores epoch after epoch.
            self._integral *= 0.5
            return +1
        if signal < -DEADBAND:
            self._integral *= 0.5
            return -1
        return 0
