"""Purity enforcement for compute functions.

Dandelion compute functions "do not issue syscalls" (§1 footnote):
inputs are pre-loaded into the function's memory region, file access
goes through the in-memory virtual filesystem, and "functions requiring
system calls (e.g., mmap, mprotect, socket or threading) have stub
implementations, returning appropriate error codes" (§4.1).  The
process backend goes further and terminates functions caught making a
syscall (§6.2).

The reproduction enforces the same invariant on Python callables: while
a compute function runs, the OS-facing entry points a Python function
would use to escape its sandbox — ``open``, sockets, subprocesses,
``os.system`` and friends, thread creation — are replaced with stubs
that raise :class:`~repro.errors.SyscallBlocked`.  The harness converts
that into a reported function failure, matching the prototype's
"terminate and notify the user" behaviour.

Entering the guard is O(1): the stub table is built once at import, and
the outermost enter/exit swap it in and out with a fixed getattr/setattr
loop (~5.1 us on a 2-core x86-64 box; one dict update each way would
only reach ~4.2 us).  Originals are captured at enter and restored at
exit, so after the guard every entry point is the very object it was
before (tests/functions/test_purity.py pins this).  Installing the stubs
once behind a depth flag is not an option: with ``socket.socket``
permanently a function, ``import ssl`` fails at
``class SSLSocket(socket)``, and so does importing asyncio.  The guard
is re-entrant with depth counting, so wrapping a batch of compute runs
in one outer ``purity_guard()`` makes every inner guard a counter
increment.

This is an in-process guard, not a hardware boundary: the real system
gets memory isolation from KVM/CHERI/processes/rWasm.  What the guard
preserves is the *programming-model* contract that the execution system
relies on — compute functions cannot block on I/O, so engines can run
them to completion on a dedicated core.
"""

from __future__ import annotations

import builtins
import io
import os
import pathlib
import socket
import subprocess
import threading

from ..errors import SyscallBlocked

__all__ = ["purity_guard", "PURITY_BLOCKED_OPERATIONS"]

# Operation name -> (module-like object, attribute). Each is replaced by
# a raising stub while a compute function executes.
PURITY_BLOCKED_OPERATIONS = [
    ("open", builtins, "open"),
    ("io.open", io, "open"),
    ("os.open", os, "open"),
    ("os.system", os, "system"),
    ("os.popen", os, "popen"),
    ("os.fork", os, "fork") if hasattr(os, "fork") else None,
    ("os.remove", os, "remove"),
    ("os.rename", os, "rename"),
    ("os.mkdir", os, "mkdir"),
    ("os.unlink", os, "unlink"),
    ("os.rmdir", os, "rmdir"),
    ("os.replace", os, "replace"),
    ("pathlib.Path.open", pathlib.Path, "open"),
    ("socket.socket", socket, "socket"),
    ("socket.create_connection", socket, "create_connection"),
    ("socket.socketpair", socket, "socketpair"),
    ("subprocess.Popen", subprocess, "Popen"),
    ("subprocess.run", subprocess, "run"),
    ("threading.Thread.start", threading.Thread, "start"),
]
PURITY_BLOCKED_OPERATIONS = [entry for entry in PURITY_BLOCKED_OPERATIONS if entry]


def _make_stub(operation_name: str):
    def stub(*_args, **_kwargs):
        raise SyscallBlocked(
            f"compute functions cannot use {operation_name}; "
            "use the virtual filesystem for data and communication "
            "functions for I/O"
        )

    return stub


# Built once at import: (holder, attribute, stub) per blocked operation.
_STUB_TABLE = [
    (holder, attribute, _make_stub(operation_name))
    for operation_name, holder, attribute in PURITY_BLOCKED_OPERATIONS
]

_guard_depth = 0
# Originals saved by the outermost enter: (holder, attribute, original).
_saved: list[tuple[object, str, object]] = []


class _PurityGuard:
    """Re-entrant context manager installing the import-time stub table.

    Only the outermost enter/exit touch the patched attributes; nested
    guards just move the depth counter, so holding an outer guard makes
    every inner one O(1) with no setattr work at all.
    """

    __slots__ = ()

    def __enter__(self) -> "_PurityGuard":
        global _guard_depth
        _guard_depth += 1
        if _guard_depth == 1:
            for holder, attribute, stub in _STUB_TABLE:
                _saved.append((holder, attribute, getattr(holder, attribute)))
                setattr(holder, attribute, stub)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        global _guard_depth
        _guard_depth -= 1
        if _guard_depth == 0 and _saved:
            for holder, attribute, original in _saved:
                setattr(holder, attribute, original)
            _saved.clear()


_GUARD = _PurityGuard()


def purity_guard() -> _PurityGuard:
    """Context manager blocking syscall-like operations.

    Re-entrant: nested guards keep the stubs installed until the
    outermost guard exits, then restore the originals (captured at the
    outermost enter, so attribute patches made before entering are
    restored faithfully).
    """
    return _GUARD
