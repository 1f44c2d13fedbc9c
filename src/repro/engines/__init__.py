"""Compute and communication engines plus engine-group management."""

from .comm_engine import RESPONSE_SET, CommunicationEngine
from .compute_engine import ComputeEngine
from .group import EngineGroup
from .task import COMMUNICATION, COMPUTE, Task, TaskOutcome

__all__ = [
    "RESPONSE_SET",
    "CommunicationEngine",
    "ComputeEngine",
    "EngineGroup",
    "COMMUNICATION",
    "COMPUTE",
    "Task",
    "TaskOutcome",
]
