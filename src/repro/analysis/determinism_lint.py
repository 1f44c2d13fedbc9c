"""Determinism self-lint over the reproduction's own source (DET codes).

The repo's north-star invariant since PR 1 is byte-identical experiment
output under ``PYTHONHASHSEED=0``.  Until now that invariant was
protected only by expensive re-run comparisons; this pass guards it
statically by scanning ``src/repro`` for the constructs that have
historically broken it:

- ``DET001`` wall-clock calls (``time.time``/``perf_counter``/
  ``monotonic``/``sleep``, ``datetime.now`` …) — simulation code must
  read virtual time from the Environment.  The CLI and the shard
  coordinator legitimately measure wall time; those findings are
  grandfathered in the checked-in baseline, not exempted by code;
- ``DET002`` unseeded ``random`` module usage — module-level RNG state
  is shared and seed-order dependent; draw from ``random.Random(seed)``;
- ``DET003`` iteration over a set expression (set literal, set
  comprehension, ``set()``/``frozenset()`` call), ``id()``-keyed
  sorting, or a call to builtin ``hash()`` — set order, addresses and
  string hashes all vary across interpreter runs and leak straight
  into event ordering or RNG salts;
- ``DET004`` a class defining ``__init__`` in a hot-path module
  without ``__slots__`` — PRs 1–2 converted these modules; new classes
  must not regress the conversion;
- ``DET005`` environment reads (``os.environ``/``os.getenv``) — config
  smuggled through the host environment makes runs machine-dependent
  in a way no seed controls;
- ``DET006`` a wall-clock function referenced *without being called*
  (``timer = time.perf_counter``, a ``clock=time.monotonic`` default)
  — smuggling the clock as a value dodges DET001's call-site check
  while importing exactly the same nondeterminism.

Findings carry the enclosing function/class as the symbol, so the
baseline survives unrelated line churn.
"""

from __future__ import annotations

import ast
import os
from typing import Optional

from .diagnostics import Diagnostic, WARNING, ERROR

__all__ = ["lint_self", "lint_source", "iter_self_sources", "HOT_PATH_MODULES"]

# Wall-clock entry points, per module root.
_WALLCLOCK_ATTRS = {
    "time": {
        "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
        "monotonic_ns", "process_time", "process_time_ns", "sleep",
    },
    "datetime": {"now", "utcnow", "today"},
}

# Modules whose classes went through the __slots__ conversion in PRs
# 1–2; new instance-bearing classes here must keep the discipline.
# The repro.sched policy/snapshot layer was born under it: snapshots
# are built and policies consulted on every routed invocation.
HOT_PATH_MODULES = (
    "sim/core.py",
    "sim/cpu.py",
    "sim/resources.py",
    "engines/task.py",
    "dispatcher/dispatcher.py",
    "dispatcher/memory.py",
    "data/context.py",
    "data/items.py",
    "data/lazy.py",
    "sched/snapshots.py",
    "sched/routing.py",
    "engines/throttle.py",
    "cluster/health.py",
    "sched/sandbox.py",
    "sched/scaling.py",
    "sched/cores.py",
    "scenario/spec.py",
    "scenario/engine.py",
    "scenario/kpis.py",
    "scenario/sweep.py",
)

_EXEMPT_BASE_HINTS = ("Error", "Exception", "Warning", "Enum", "Protocol", "ABC")


class _SelfLintPass(ast.NodeVisitor):
    def __init__(self, file: str, *, hot_path: bool):
        self.file = file
        self.hot_path = hot_path
        self.diagnostics: list[Diagnostic] = []
        self.scope: list[str] = []
        # Names bound to the time/datetime/random/os modules in this file.
        self.module_aliases: dict[str, str] = {}
        # Wall-clock/random/environ functions imported by bare name.
        self.bare_wallclock: set[str] = set()
        self.bare_random: set[str] = set()
        self.bare_environ: set[str] = set()
        # Node ids of expressions appearing as the callee of a Call:
        # lets the reference checks distinguish `f()` (DET001's job)
        # from `x = f` (DET006's).
        self._called: set[int] = set()

    # -- helpers ----------------------------------------------------------

    def _symbol(self) -> Optional[str]:
        return ".".join(self.scope) if self.scope else "<module>"

    def _diag(self, code: str, severity: str, message: str, node: ast.AST,
              hint: Optional[str] = None) -> None:
        self.diagnostics.append(
            Diagnostic(
                code=code, severity=severity, message=message,
                file=self.file, line=getattr(node, "lineno", None),
                symbol=self._symbol(), hint=hint,
            )
        )

    # -- imports ----------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in ("time", "datetime", "random", "os"):
                self.module_aliases[alias.asname or root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        if root in _WALLCLOCK_ATTRS:
            for alias in node.names:
                if alias.name in _WALLCLOCK_ATTRS[root]:
                    self.bare_wallclock.add(alias.asname or alias.name)
        if root == "random":
            for alias in node.names:
                if alias.name != "Random":
                    self.bare_random.add(alias.asname or alias.name)
        if root == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv"):
                    self.bare_environ.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- scopes -----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.hot_path:
            self._check_slots(node)
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    # -- checks -----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        self._called.add(id(func))
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            root = self.module_aliases.get(func.value.id)
            if root in _WALLCLOCK_ATTRS and func.attr in _WALLCLOCK_ATTRS[root]:
                self._diag(
                    "DET001", ERROR,
                    f"wall-clock call {root}.{func.attr}() in simulation code",
                    node,
                    hint="read virtual time from the Environment; wall clocks "
                         "belong only in the CLI and shard coordinator "
                         "(baseline them)",
                )
            elif root == "random":
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        self._diag(
                            "DET002", ERROR,
                            "random.Random() constructed without a seed",
                            node,
                            hint="pass an explicit seed so runs are reproducible",
                        )
                else:
                    self._diag(
                        "DET002", ERROR,
                        f"module-level random.{func.attr}() uses shared unseeded "
                        "RNG state",
                        node,
                        hint="draw from a random.Random(seed) instance instead",
                    )
        elif isinstance(func, ast.Name):
            if func.id in self.bare_wallclock:
                self._diag(
                    "DET001", ERROR,
                    f"wall-clock call {func.id}() in simulation code",
                    node,
                )
            elif func.id in self.bare_random:
                self._diag(
                    "DET002", ERROR,
                    f"module-level random function {func.id}() uses shared "
                    "unseeded RNG state",
                    node,
                )
            elif func.id == "hash":
                self._diag(
                    "DET003", ERROR,
                    "builtin hash(): str/bytes hashes are salted per process "
                    "(PYTHONHASHSEED)",
                    node,
                    hint="derive the value from a stable property: a position "
                         "in sorted(...), a sequence number, zlib.crc32",
                )
        self._check_id_ordering(node)
        self.generic_visit(node)

    def _check_id_ordering(self, node: ast.Call) -> None:
        func = node.func
        is_sort = (
            (isinstance(func, ast.Name) and func.id == "sorted")
            or (isinstance(func, ast.Attribute) and func.attr == "sort")
        )
        if not is_sort:
            return
        for keyword in node.keywords:
            if (
                keyword.arg == "key"
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id == "id"
            ):
                self._diag(
                    "DET003", ERROR,
                    "id()-keyed sort: object addresses vary across runs",
                    node,
                    hint="sort by a stable field (name, sequence number)",
                )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name):
            root = self.module_aliases.get(node.value.id)
            if root == "os" and node.attr in ("environ", "getenv"):
                self._diag(
                    "DET005", ERROR,
                    f"environment read os.{node.attr}: behavior becomes "
                    "host-dependent",
                    node,
                    hint="thread configuration through explicit parameters "
                         "or CLI flags; no seed controls the environment",
                )
            elif (
                root in _WALLCLOCK_ATTRS
                and node.attr in _WALLCLOCK_ATTRS[root]
                and id(node) not in self._called
            ):
                self._diag(
                    "DET006", ERROR,
                    f"wall-clock function {root}.{node.attr} referenced "
                    "without a call: the clock is smuggled as a value",
                    node,
                    hint="pass a seeded/virtual clock explicitly; aliasing "
                         "the wall clock dodges the DET001 call-site check",
                )
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            if node.id in self.bare_environ:
                self._diag(
                    "DET005", ERROR,
                    f"environment read via {node.id}: behavior becomes "
                    "host-dependent",
                    node,
                    hint="thread configuration through explicit parameters "
                         "or CLI flags; no seed controls the environment",
                )
            elif node.id in self.bare_wallclock and id(node) not in self._called:
                self._diag(
                    "DET006", ERROR,
                    f"wall-clock function {node.id} referenced without a "
                    "call: the clock is smuggled as a value",
                    node,
                )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_set_iteration(node.iter)
        self.generic_visit(node)

    def _check_set_iteration(self, iter_node: ast.AST) -> None:
        unsorted_set = isinstance(iter_node, (ast.Set, ast.SetComp)) or (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in ("set", "frozenset")
        )
        if unsorted_set:
            self._diag(
                "DET003", ERROR,
                "iteration over a set expression: element order depends on "
                "PYTHONHASHSEED",
                iter_node,
                hint="wrap in sorted(...) before iterating when order can "
                     "reach event scheduling or output",
            )

    def _check_slots(self, node: ast.ClassDef) -> None:
        has_init = any(
            isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
            for stmt in node.body
        )
        if not has_init:
            return
        for decorator in node.decorator_list:
            text = ast.dump(decorator)
            if "dataclass" in text:
                return
        for base in node.bases:
            rendered = ast.dump(base)
            if any(hint in rendered for hint in _EXEMPT_BASE_HINTS):
                return
        for stmt in node.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return
        self._diag(
            "DET004", WARNING,
            f"hot-path class {node.name!r} defines __init__ without __slots__",
            node,
            hint="PRs 1-2 converted this module; declare __slots__ to keep "
                 "per-instance dict allocation off the hot path",
        )


def lint_source(source: str, file: str, *, hot_path: bool = False) -> list[Diagnostic]:
    """Lint one Python source string (exposed for tests)."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Diagnostic(
                "DET000", ERROR, f"syntax error: {exc.msg}",
                file=file, line=exc.lineno, symbol="<module>",
            )
        ]
    visitor = _SelfLintPass(file, hot_path=hot_path)
    visitor.visit(tree)
    return visitor.diagnostics


def iter_self_sources(root: Optional[str] = None):
    """Yield ``(reported_path, source, hot_path)`` per package file.

    File paths are package-relative (``src/repro/...``) so baseline
    fingerprints are stable across checkouts and working directories.
    """
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relative = os.path.relpath(path, root).replace(os.sep, "/")
            reported = f"src/repro/{relative}"
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            yield reported, source, relative in HOT_PATH_MODULES


def lint_self(root: Optional[str] = None) -> list[Diagnostic]:
    """Lint every Python file under ``src/repro`` (or ``root``)."""
    diagnostics: list[Diagnostic] = []
    for reported, source, hot_path in iter_self_sources(root):
        diagnostics.extend(lint_source(source, reported, hot_path=hot_path))
    return diagnostics
