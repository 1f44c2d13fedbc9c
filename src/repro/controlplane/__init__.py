"""Worker control plane: PI controller and core allocator."""

from .allocator import CONTROL_EPOCH_SECONDS, CoreAllocator
from .pi_controller import PiController

__all__ = ["CONTROL_EPOCH_SECONDS", "CoreAllocator", "PiController"]
