"""Tasks — the unit of work the dispatcher hands to engines (§5).

"The dispatcher enqueues tasks (which consist of a prepared memory
context and metadata) to the appropriate queue type and receives
contexts containing the results."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..composition.registry import FunctionBinary
from ..data.items import DataSet

__all__ = ["Task", "TaskOutcome", "COMPUTE", "COMMUNICATION"]

COMPUTE = "compute"
COMMUNICATION = "communication"


@dataclass(slots=True)
class TaskOutcome:
    """What an engine reports back for one task."""

    success: bool
    outputs: Optional[list[DataSet]] = None
    error: Optional[BaseException] = None
    service_seconds: float = 0.0      # engine-side time spent on the task
    transient: bool = False           # retryable (engine-level) failure


@dataclass(slots=True)
class Task:
    """One function instance ready for execution.

    The engine reports a :class:`TaskOutcome` to the ``on_done`` passed
    with the task to :meth:`~repro.engines.group.EngineGroup.submit`;
    the task does not hold it, so a caller that holds the task is not
    referred back to.
    """

    kind: str
    input_sets: list[DataSet]
    output_set_names: list[str]
    binary: Optional[FunctionBinary] = None   # compute tasks only
    cached: bool = False                      # binary served from RAM cache
    zero_copy: bool = False                   # inputs remapped, not copied (§6.1)
    timeout: Optional[float] = None
    node_name: str = ""

    def __post_init__(self):
        if self.kind not in (COMPUTE, COMMUNICATION):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == COMPUTE and self.binary is None:
            raise ValueError("compute tasks need a function binary")

    @property
    def input_bytes(self) -> int:
        return sum(s.size for s in self.input_sets)
