"""Azure-Functions-like trace synthesis, sampling, and streaming."""

from .azure import TraceFunction, generate_functions
from .sampler import sample_functions
from .stream import StreamedTrace, streamed_trace

__all__ = [
    "StreamedTrace",
    "streamed_trace",
    "TraceFunction",
    "generate_functions",
    "sample_functions",
]
