"""Discrete-event simulation substrate for the Dandelion reproduction."""

from .core import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from .cpu import ProcessorSharingCpu
from .distributions import Rng
from .metrics import LatencyRecorder, percentile, relative_variance
from .resources import Request, Resource

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "SimulationError",
    "Timeout",
    "Rng",
    "ProcessorSharingCpu",
    "LatencyRecorder",
    "percentile",
    "relative_variance",
    "Request",
    "Resource",
]
