"""Static purity verification of compute callables (PUR codes).

The dynamic guard (:mod:`repro.functions.purity`) terminates a compute
function the moment it touches a blocked operation — *after* the
invocation has been admitted, scheduled, and charged a memory context.
This pass proves the same contract at registration time by walking the
callable's AST:

- ``PUR001`` import of a blocked module inside the function;
- ``PUR002`` attribute reach into a blocked module (``os.system``,
  ``socket.socket``, ``threading.Thread`` …) via a module-level import;
- ``PUR003`` call to the builtin ``open``;
- ``PUR004`` dynamic-execution escape (``exec``/``eval``/``__import__``/
  ``compile``);
- ``PUR005`` ``global``/``nonlocal`` mutation (breaks idempotent
  retries, §6.1);
- ``PUR006`` generator entry point (a ``yield`` would make the harness
  return without running the body — compute functions run to
  completion);
- ``PUR010`` nondeterminism source (``time``/``random``/``datetime``/
  ``secrets``/``uuid``) not routed through a seeded RNG — warning
  severity, because it breaks reproducibility rather than isolation;
- ``PUR090`` source unavailable (C callable, interactively defined) —
  the pass falls back to a bytecode-name scan and reports what it can.

Calls into *same-module* helper functions are followed transitively
(bounded depth, cycle-safe), so the common "entry point delegates to a
private helper" shape is covered.  Cross-module calls into the trusted
SDK (:mod:`repro.functions.sdk`) are modelled precisely enough to build
the read/write/item summaries the composition analyzer's RACE/CON
rules and never-written-set check consume.
"""

from __future__ import annotations

import ast
import inspect
import os
import textwrap
from dataclasses import dataclass, field
from typing import Callable, Optional

from .diagnostics import Diagnostic, ERROR, WARNING

__all__ = [
    "verify_purity",
    "PurityReport",
    "PurityWarning",
    "BLOCKED_MODULES",
    "NONDETERMINISM_MODULES",
]


class PurityWarning(UserWarning):
    """Emitted when ``verify="warn"`` registration finds violations."""


# Modules whose mere reachability from a compute function means the
# function can escape the pure-compute contract.  ``pathlib`` is here
# for its I/O surface (``Path.open``/``read_text``/``unlink``), which
# the dynamic guard also stubs.
BLOCKED_MODULES = frozenset(
    {
        "os",
        "io",
        "socket",
        "subprocess",
        "threading",
        "multiprocessing",
        "shutil",
        "ctypes",
        "signal",
        "pathlib",
    }
)

# Sources of nondeterminism: allowed only through a seeded RNG (the
# simulation's ``random.Random(seed)`` discipline).
NONDETERMINISM_MODULES = frozenset({"time", "random", "datetime", "secrets", "uuid"})

_DYNAMIC_EXEC_BUILTINS = frozenset({"exec", "eval", "__import__", "compile"})

# SDK helpers that write outputs; second positional argument is the set.
_SDK_WRITERS = frozenset({"write_item"})
# SDK helpers that read an input set; second positional argument is the set.
_SDK_READERS = frozenset({"read_items", "read_all_bytes"})
# SDK helpers known not to write (safe to hand the vfs to).
_SDK_SAFE = frozenset({"read_items", "read_all_bytes", "parse_http_response_item",
                       "parse_http_request_item", "format_http_request"})
_VFS_WRITE_METHODS = frozenset({"write_bytes", "write_text"})
_VFS_READ_METHODS = frozenset({"read_bytes", "read_text", "listdir", "exists"})

_MAX_DEPTH = 8


@dataclass
class PurityReport:
    """Outcome of statically verifying one compute callable."""

    name: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    # Output-set names the function provably writes; ``None`` when the
    # analysis saw a write it could not resolve (dynamic path, vfs
    # escaping into un-analyzed code), i.e. the summary is not trusted.
    written_sets: Optional[frozenset[str]] = frozenset()
    # Input-set names the function provably reads (vfs reads under
    # ``/in/<set>/...``, ``listdir``, and the SDK read helpers); the
    # same ``None``-on-doubt discipline as ``written_sets``.
    read_sets: Optional[frozenset[str]] = frozenset()
    # Per written set: the constant item names written into it, or
    # ``None`` when any item name in that set is dynamic.  The whole
    # mapping is ``None`` when the write summary itself is untrusted.
    written_items: Optional[dict] = field(default_factory=dict)
    analyzed: bool = True

    @property
    def ok(self) -> bool:
        return not any(d.severity == ERROR for d in self.diagnostics)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == ERROR]

    def distrust_summaries(self) -> None:
        """Discard every dataflow summary (never guess, §4.1)."""
        self.written_sets = None
        self.read_sets = None
        self.written_items = None

    def record_write(self, set_name: str, item_name: Optional[str]) -> None:
        """Note a resolved write of ``set_name`` (item may be dynamic)."""
        if self.written_sets is not None:
            self.written_sets = frozenset(self.written_sets | {set_name})
        if self.written_items is None:
            return
        if item_name is None:
            self.written_items[set_name] = None
        elif self.written_items.get(set_name, frozenset()) is not None:
            self.written_items[set_name] = frozenset(
                self.written_items.get(set_name) or frozenset()
            ) | {item_name}

    def record_read(self, set_name: str) -> None:
        if self.read_sets is not None:
            self.read_sets = frozenset(self.read_sets | {set_name})


def _relative_file(func) -> Optional[str]:
    try:
        path = inspect.getsourcefile(func)
    except TypeError:
        return None
    if path is None:
        # Sourced functions carry a pseudo-filename like "<name>".
        code = getattr(func, "__code__", None)
        return getattr(code, "co_filename", None)
    # Normalize repo files to a checkout-independent form so baseline
    # fingerprints survive moves of the working directory.
    marker = os.sep + os.path.join("src", "repro") + os.sep
    index = path.find(marker)
    if index >= 0:
        return path[index + 1:].replace(os.sep, "/")
    return path


def _resolve(name: str, func) -> object:
    """What a bare name refers to at call time (globals, then builtins)."""
    func_globals = getattr(func, "__globals__", {})
    if name in func_globals:
        return func_globals[name]
    builtins_ns = func_globals.get("__builtins__", {})
    if isinstance(builtins_ns, dict):
        return builtins_ns.get(name)
    return getattr(builtins_ns, name, None)


class _FunctionPass(ast.NodeVisitor):
    """One AST walk over one function definition."""

    def __init__(self, report: PurityReport, func, node: ast.AST, *,
                 file: Optional[str], symbol: str, is_entry: bool):
        self.report = report
        self.func = func
        self.node = node
        self.file = file
        self.symbol = symbol
        self.is_entry = is_entry
        # Names bound locally (params, assignments, local imports):
        # these shadow module globals for resolution purposes.
        self.local_names: set[str] = set()
        code = getattr(func, "__code__", None)
        if code is not None:
            self.local_names.update(code.co_varnames)
        self.vfs_param: Optional[str] = None
        args = getattr(node, "args", None)
        if args is not None and args.args:
            self.vfs_param = args.args[0].arg
        # Same-module callees to follow transitively.
        self.callees: list[Callable] = []

    # -- helpers ----------------------------------------------------------

    def _diag(self, code: str, severity: str, message: str, node: ast.AST,
              hint: Optional[str] = None) -> None:
        self.report.diagnostics.append(
            Diagnostic(
                code=code,
                severity=severity,
                message=message,
                file=self.file,
                line=getattr(node, "lineno", None),
                symbol=self.symbol,
                hint=hint,
            )
        )

    def _module_for(self, name: str) -> Optional[str]:
        """Module name a bare identifier resolves to, if it is a module."""
        if name in self.local_names:
            return None
        value = _resolve(name, self.func)
        if inspect.ismodule(value):
            return value.__name__.split(".")[0]
        return None

    # -- visitors ---------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            bound = alias.asname or root
            self.local_names.add(bound)
            if root in BLOCKED_MODULES:
                self._diag(
                    "PUR001", ERROR,
                    f"import of blocked module {alias.name!r} in compute function",
                    node,
                    hint="compute functions cannot reach the OS; use the virtual "
                         "filesystem and communication functions",
                )
            elif root in NONDETERMINISM_MODULES:
                self._diag(
                    "PUR010", WARNING,
                    f"import of nondeterminism source {alias.name!r}",
                    node,
                    hint="draw randomness from a seeded random.Random and model "
                         "time in simulation, not wall clocks",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        root = (node.module or "").split(".")[0]
        for alias in node.names:
            self.local_names.add(alias.asname or alias.name)
        if root in BLOCKED_MODULES:
            self._diag(
                "PUR001", ERROR,
                f"import from blocked module {node.module!r} in compute function",
                node,
            )
        elif root in NONDETERMINISM_MODULES:
            self._diag(
                "PUR010", WARNING,
                f"import from nondeterminism source {node.module!r}",
                node,
            )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name):
            module = self._module_for(node.value.id)
            if module in BLOCKED_MODULES:
                self._diag(
                    "PUR002", ERROR,
                    f"compute function reaches blocked operation "
                    f"{module}.{node.attr}",
                    node,
                    hint="the dynamic guard would terminate this at run time; "
                         "route data through the vfs instead",
                )
            elif module in NONDETERMINISM_MODULES:
                if not (module == "random" and node.attr == "Random"):
                    self._diag(
                        "PUR010", WARNING,
                        f"nondeterminism source {module}.{node.attr} not routed "
                        "through a seeded RNG",
                        node,
                    )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func_node = node.func
        if isinstance(func_node, ast.Name):
            name = func_node.id
            if name not in self.local_names:
                if name == "open":
                    self._diag(
                        "PUR003", ERROR,
                        "call to builtin open() in compute function",
                        node,
                        hint="read inputs via vfs.read_bytes('/in/<set>/<item>')",
                    )
                elif name in _DYNAMIC_EXEC_BUILTINS and callable(_resolve(name, self.func)):
                    self._diag(
                        "PUR004", ERROR,
                        f"dynamic execution via {name}() defeats static verification",
                        node,
                    )
            if name in self.local_names:
                # A locally-bound callable is opaque; if the vfs flows
                # into it the write summary can no longer be trusted.
                self._maybe_escape_via_args(node)
                self.generic_visit(node)
                return
            target = _resolve(name, self.func)
            if inspect.isfunction(target):
                if target.__module__ == self.func.__module__:
                    self.callees.append(target)
                elif getattr(target, "__name__", "") in _SDK_WRITERS:
                    self._record_sdk_write(node)
                elif getattr(target, "__name__", "") in _SDK_READERS:
                    self._record_sdk_read(node)
                elif getattr(target, "__name__", "") not in _SDK_SAFE:
                    self._maybe_escape_via_args(node)
            elif target is not None and not inspect.isclass(target) and callable(target):
                # Includes builtins: getattr(vfs, ...)/map(f, vfs) can
                # leak the handle into unanalyzed code.
                self._maybe_escape_via_args(node)
        elif isinstance(func_node, ast.Attribute):
            self._record_method_call(node, func_node)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self._diag(
            "PUR005", ERROR,
            f"global mutation of {', '.join(node.names)} breaks idempotent retries",
            node,
            hint="compute functions must be pure: outputs only through the vfs",
        )

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self._diag(
            "PUR005", ERROR,
            f"nonlocal mutation of {', '.join(node.names)} breaks idempotent retries",
            node,
        )

    def visit_Yield(self, node: ast.Yield) -> None:
        self._flag_generator(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self._flag_generator(node)

    def _flag_generator(self, node: ast.AST) -> None:
        # Only the entry point's own body matters: a generator entry
        # point never runs (the harness calls it once and discards the
        # suspended generator), which silently produces no outputs.
        if self.is_entry:
            self._diag(
                "PUR006", ERROR,
                "entry point is a generator: the body would never execute "
                "(compute functions run to completion)",
                node,
            )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node is not self.node:
            self.local_names.add(node.name)
            return  # nested defs are analyzed only if called (conservative)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # Lambdas share the enclosing scope; walk their bodies.
        self.generic_visit(node)

    # -- write-summary extraction ----------------------------------------

    def _record_method_call(self, node: ast.Call, func_node: ast.Attribute) -> None:
        method = func_node.attr
        if method in _VFS_WRITE_METHODS:
            path = node.args[0] if node.args else None
            set_name, item_name = _set_item_from_path(path, "out")
            if set_name is not None:
                self.report.record_write(set_name, item_name)
            else:
                # Dynamic path: neither the write nor the item summary
                # can be trusted any longer.
                self.report.written_sets = None
                self.report.written_items = None
        elif method in _VFS_READ_METHODS:
            path = node.args[0] if node.args else None
            set_name, _item = _set_item_from_path(path, "in")
            if set_name is not None:
                self.report.record_read(set_name)
            elif _set_item_from_path(path, "out")[0] is None:
                # Not a resolvable /in or /out path: the read summary
                # is no longer complete (reads of /out are harmless).
                self.report.read_sets = None
        else:
            self._maybe_escape_via_args(node)

    def _record_sdk_write(self, node: ast.Call) -> None:
        set_arg = node.args[1] if len(node.args) > 1 else None
        item_arg = node.args[2] if len(node.args) > 2 else None
        if isinstance(set_arg, ast.Constant) and isinstance(set_arg.value, str):
            if isinstance(item_arg, ast.Constant) and isinstance(item_arg.value, str):
                self.report.record_write(set_arg.value, item_arg.value)
            else:
                self.report.record_write(set_arg.value, None)
        else:
            self.report.written_sets = None
            self.report.written_items = None

    def _record_sdk_read(self, node: ast.Call) -> None:
        set_arg = node.args[1] if len(node.args) > 1 else None
        if isinstance(set_arg, ast.Constant) and isinstance(set_arg.value, str):
            self.report.record_read(set_arg.value)
        else:
            self.report.read_sets = None

    def _maybe_escape_via_args(self, node: ast.Call) -> None:
        # The vfs handle flowing into code we do not analyze means the
        # dataflow summaries can no longer be trusted (purity
        # diagnostics stay valid — the callee is either same-module,
        # and followed, or trusted platform code).
        if self.vfs_param is None:
            return
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name) and arg.id == self.vfs_param:
                self.report.distrust_summaries()
                return


def _set_item_from_path(path_node, tree: str) -> tuple[Optional[str], Optional[str]]:
    """Resolve ``/<tree>/<set>/<item>`` from a constant-enough path node.

    Returns ``(set_name, item_name)``; ``item_name`` is ``None`` when
    the item segment is dynamic or absent, ``(None, None)`` when even
    the set segment cannot be resolved.
    """
    rendered = None
    if isinstance(path_node, ast.Constant) and isinstance(path_node.value, str):
        rendered = path_node.value
    elif isinstance(path_node, ast.JoinedStr):
        # f"/out/{set}/..." with a literal set segment is resolvable.
        rendered = ""
        for piece in path_node.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                rendered += piece.value
            else:
                rendered += "\x00"
    if rendered is None:
        return None, None
    parts = rendered.split("/")
    if len(parts) < 3 or parts[0] != "" or parts[1] != tree or "\x00" in parts[2]:
        return None, None
    item = None
    if len(parts) >= 4 and parts[3] and "\x00" not in parts[3]:
        item = parts[3]
    return parts[2], item


def _function_ast(func) -> Optional[ast.AST]:
    stashed = getattr(func, "__dandelion_source__", None)
    if stashed is not None:
        # Source-registered function (python_function_from_source): the
        # whole submitted module is stashed; pick the matching def.
        try:
            tree = ast.parse(stashed)
        except SyntaxError:
            return None
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == func.__name__
            ):
                return node
        return None
    try:
        source = textwrap.dedent(inspect.getsource(func))
        tree = ast.parse(source)
    except (OSError, TypeError, SyntaxError, IndentationError):
        return None
    # ``getsource`` of a decorated function returns the decorated def;
    # the first function definition in the parse is the one we want.
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Re-anchor parse-local line numbers to the source file
            # (the dedented snippet starts at the decorator line).
            ast.increment_lineno(node, _first_line(func) - 1)
            return node
    return None


def _first_line(func) -> int:
    try:
        return inspect.getsourcelines(func)[1]
    except (OSError, TypeError):
        return 1


def _bytecode_fallback(report: PurityReport, func, file: Optional[str]) -> None:
    """No source: scan the code object's names for blocked reaches."""
    code = getattr(func, "__code__", None)
    if code is None:
        report.analyzed = False
        report.distrust_summaries()
        report.diagnostics.append(
            Diagnostic(
                "PUR090", WARNING,
                f"cannot analyze {report.name!r}: no Python source or bytecode",
                file=file, symbol=report.name,
                hint="register from source (python_function_from_source) for "
                     "static verification",
            )
        )
        return
    report.distrust_summaries()  # cannot prove dataflow without an AST
    for name in code.co_names:
        resolved = _resolve(name, func)
        if inspect.ismodule(resolved):
            root = resolved.__name__.split(".")[0]
            if root in BLOCKED_MODULES:
                report.diagnostics.append(
                    Diagnostic(
                        "PUR002", ERROR,
                        f"compute function references blocked module {root!r} "
                        "(bytecode scan)",
                        file=file, symbol=report.name,
                    )
                )
        elif name == "open" and "open" not in code.co_varnames:
            report.diagnostics.append(
                Diagnostic(
                    "PUR003", ERROR,
                    "compute function references builtin open() (bytecode scan)",
                    file=file, symbol=report.name,
                )
            )


def verify_purity(target) -> PurityReport:
    """Statically verify a compute callable or FunctionBinary.

    Returns a :class:`PurityReport`; ``report.ok`` is False when any
    error-severity finding exists.  Same-module helpers called by the
    entry point are followed transitively.
    """
    entry = getattr(target, "entry_point", target)
    name = getattr(target, "name", None) or getattr(entry, "__name__", "<callable>")
    entry = inspect.unwrap(entry)
    report = PurityReport(name=name)
    file = _relative_file(entry)

    node = _function_ast(entry)
    if node is None:
        _bytecode_fallback(report, entry, file)
        return report

    seen: set[object] = set()
    queue: list[tuple[Callable, ast.AST, int, bool]] = [(entry, node, 0, True)]
    seen.add(entry)
    while queue:
        func, func_node, depth, is_entry = queue.pop(0)
        symbol = name if is_entry else f"{name} -> {func.__name__}"
        visitor = _FunctionPass(
            report, func, func_node,
            file=_relative_file(func), symbol=symbol, is_entry=is_entry,
        )
        visitor.visit(func_node)
        if depth >= _MAX_DEPTH:
            if visitor.callees:
                report.distrust_summaries()  # unexplored calls may touch sets
            continue
        for callee in visitor.callees:
            callee = inspect.unwrap(callee)
            if callee in seen:
                continue
            seen.add(callee)
            callee_node = _function_ast(callee)
            if callee_node is None:
                report.distrust_summaries()
                continue
            queue.append((callee, callee_node, depth + 1, False))
    return report
