"""Dispatcher: orchestration, instance expansion, memory accounting."""

from .. import _lazy_exports

_EXPORTS = {
    "Dispatcher": ".dispatcher",
    "InvocationResult": ".dispatcher",
    "NodeFailure": ".dispatcher",
    "InstancePlan": ".expansion",
    "expand_instances": ".expansion",
    "merge_instance_outputs": ".expansion",
    "MemoryTracker": ".memory",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, globals(), _EXPORTS)
