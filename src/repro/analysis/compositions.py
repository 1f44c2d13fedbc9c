"""Whole-composition static analysis (CMP / RACE / CON / COST codes).

``Composition._validate`` rejects structurally broken graphs (unknown
sets, cycles, unfed inputs).  Because every function's data interface
is declared and the DAG is explicit (§4.1), a good deal more is
decidable before anything runs.  One analyzer derives the per-node
facts once — declared interfaces, the purity verifier's read/write/item
summaries (:class:`~repro.analysis.purity_check.PurityReport`),
incoming edges, consumed sets, reachability — and every rule reads
them:

**CMP** — well-formed but wasteful or suspicious graphs (warnings,
except CMP000):

- ``CMP000`` the DSL source does not parse (the parse error, relined);
- ``CMP001`` an output set no edge or output binding ever consumes;
- ``CMP002`` a vertex from which no path reaches a composition output;
- ``CMP003`` fan-out explosion: an ``each``/``key`` edge into a
  single-capacity communication vertex, or chained ``each``/``key``
  edges whose instance counts multiply;
- ``CMP004`` a nested composition exposes an external set name equal
  to one of the parent's own bindings — legal, reliably mis-wired;
- ``CMP005`` a consumed set the producing function provably never
  writes.

**RACE** — hazards between vertices the DAG does not order:

- ``RACE001`` two unordered nodes both write the same set outside
  their declared interfaces (undeclared writes land in the shared
  composition namespace, so the platform cannot order them);
- ``RACE002`` a node reads an undeclared set that only unordered nodes
  produce — which write the read observes depends on scheduling;
- ``RACE003`` an ``each``/``key``-instanced node writes a *constant*
  item name into a consumed output set, so every instance emits the
  same item and the merge must rename (warning);
- ``RACE004`` a node's function writes a set name that is also one of
  its declared input sets — two writers for one name in the context.

**CON** — producer/consumer contracts:

- ``CON001`` a function reads a set no vertex on any path produces;
- ``CON002`` CMP005 seen through nested-composition output bindings
  (``DataSet.renamed`` aliases at run time): the consumed set resolves
  to an inner function that provably never writes it;
- ``CON003`` mixing ``each`` and ``key`` edges on one node, or two
  ``each`` edges whose static item counts provably differ (the
  expander would raise mid-invocation).

**COST** — the static envelope, exported as
:class:`CompositionCostSummary` for dispatcher admission and
``repro.sched`` policies:

- ``COST001`` the declared deadline is below the critical path even
  with unbounded parallelism;
- ``COST002`` peak in-flight bytes exceed the supplied capacity
  (warning);
- ``COST003`` a deadline is declared but fan-out cardinality is
  statically unbounded, so the envelope is a lower bound (warning).

Every rule stays silent rather than guessing whenever a purity summary
is incomplete (``None``).  :func:`extract_dsl_blocks` pulls composition
blocks out of arbitrary text (example scripts embed them in
triple-quoted strings) for :func:`analyze_dsl_source`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from ..composition.dsl import parse_composition
from ..composition.graph import Composition, CompositionError, Distribution
from .diagnostics import Diagnostic, ERROR, WARNING
from .purity_check import PurityReport, verify_purity

__all__ = [
    "CompositionCostSummary",
    "CompositionReport",
    "analyze_composition",
    "analyze_dsl_source",
    "cost_summary",
    "extract_dsl_blocks",
    "DEFAULT_NODE_SECONDS",
    "COMM_NODE_SECONDS",
    "DEFAULT_SET_BYTES",
]

# Cost-model defaults: per-instance seconds for a compute node with no
# declared compute_cost, for a communication round-trip, and the
# assumed bytes of one delivered set.  Deliberately coarse — the COST
# family compares *declared* costs against *declared* deadlines;
# defaults only keep undeclared nodes from zeroing the critical path.
DEFAULT_NODE_SECONDS = 0.001
COMM_NODE_SECONDS = 0.002
DEFAULT_SET_BYTES = 64 * 1024


@dataclass(frozen=True)
class CompositionCostSummary:
    """Static cost envelope of one composition.

    Consumed by ``Dispatcher`` static admission (reject invocations
    whose deadline is statically unreachable before scheduling them)
    and by ``repro.sched`` policies (see
    :mod:`repro.sched.hints`).  All figures are *lower bounds* when
    ``statically_bounded`` is False.
    """

    composition: str
    node_count: int
    edge_count: int
    critical_path_depth: int          # nodes on the longest path
    critical_path_seconds: float      # with unbounded parallelism
    total_compute_seconds: float      # serialized work, all instances
    max_parallel_width: int           # widest schedulable antichain level
    peak_inflight_bytes: int          # widest level's memory contexts
    statically_bounded: bool          # False: some fan-out unknown
    deadline_seconds: Optional[float] = None
    deadline_feasible: Optional[bool] = None   # None: no deadline declared
    functions: tuple = ()


@dataclass
class CompositionReport:
    """Outcome of analyzing one composition."""

    composition: str
    diagnostics: list
    summary: CompositionCostSummary

    @property
    def ok(self) -> bool:
        return not any(d.severity == ERROR for d in self.diagnostics)


class _NodeFacts:
    """Per-node slice of the analysis state."""

    __slots__ = (
        "node",
        "declared_in",
        "declared_out",
        "report",
        "undeclared_writes",
        "undeclared_reads",
        "alias_writes",
        "multiplicity",
        "seconds",
        "bytes_estimate",
        "level",
    )

    def __init__(self, node, report: Optional[PurityReport]):
        self.node = node
        self.declared_in = frozenset(node.input_sets)
        self.declared_out = frozenset(node.output_sets)
        self.report = report
        self.undeclared_writes: frozenset = frozenset()
        self.undeclared_reads: frozenset = frozenset()
        self.alias_writes: frozenset = frozenset()
        if report is not None and report.analyzed:
            if report.written_sets is not None:
                self.undeclared_writes = frozenset(
                    report.written_sets - self.declared_out - self.declared_in
                )
                self.alias_writes = frozenset(
                    report.written_sets & self.declared_in
                )
            if report.read_sets is not None:
                self.undeclared_reads = frozenset(
                    report.read_sets - self.declared_in - self.declared_out
                )
        self.multiplicity: Optional[int] = 1   # None: statically unbounded
        self.seconds = DEFAULT_NODE_SECONDS
        self.bytes_estimate = 0
        self.level = 0


def _resolve_producer(composition: Composition, node_name: str, set_name: str):
    """Follow nested output bindings to the producing compute function.

    Returns ``(function_name, inner_set_name, crossed_boundary)`` or
    ``None`` when the chain ends at a communication vertex or a broken
    binding.  Each nesting hop is a ``DataSet.renamed`` alias at run
    time — exactly the renames that would hide a never-written set.
    """
    node = composition.nodes.get(node_name)
    crossed = False
    hops = 0
    while node is not None and node.kind == "composition" and hops < 32:
        nested = node.composition
        binding = next(
            (b for b in nested.outputs if b.external == set_name), None
        )
        if binding is None:
            return None
        node = nested.nodes.get(binding.node)
        set_name = binding.node_set
        crossed = True
        hops += 1
    if node is not None and node.kind == "compute":
        return node.function, set_name, crossed
    return None


class _Analysis:
    """Facts derived once from ``(composition, registry)``, and the
    rules that read them."""

    def __init__(self, composition: Composition, registry, file=None,
                 purity_reports: Optional[dict] = None):
        self.composition = composition
        self.registry = registry
        self.file = file
        self.diagnostics: list[Diagnostic] = []
        # function name -> PurityReport, shared with nested analyses.
        self._purity = {} if purity_reports is None else purity_reports
        # Incoming edges by target; fan_in keeps the each/key ones.
        self.incoming: dict[str, list] = {name: [] for name in composition.nodes}
        self.fan_in: dict[str, list] = {name: [] for name in composition.nodes}
        for edge in composition.edges:
            self.incoming[edge.target].append(edge)
            if edge.distribution is not Distribution.ALL:
                self.fan_in[edge.target].append(edge)
        self.facts: dict[str, _NodeFacts] = {}
        for name in composition.topological_order:
            node = composition.nodes[name]
            report = (
                self._function_report(node.function)
                if node.kind == "compute" else None
            )
            self.facts[name] = _NodeFacts(node, report)
        # (node, set) -> static item count, where provable.
        self.out_card: dict[tuple, Optional[int]] = {}
        self.summary = self._build_cost()

    def _function_report(self, function_name: str) -> Optional[PurityReport]:
        registry = self.registry
        if registry is None or not registry.has_function(function_name):
            return None  # registration-time validation reports this
        report = self._purity.get(function_name)
        if report is None:
            report = verify_purity(registry.function(function_name))
            self._purity[function_name] = report
        return report

    def _emit(self, code, severity, message, hint) -> None:
        self.diagnostics.append(
            Diagnostic(
                code, severity, message,
                file=self.file, symbol=self.composition.name, hint=hint,
            )
        )

    # -- cost model ----------------------------------------------------------

    def _node_cost(self, nf: _NodeFacts, input_bytes: int) -> tuple[float, int]:
        """``(seconds, context bytes)`` of one instance of a node."""
        node = nf.node
        if node.kind == "communication":
            return COMM_NODE_SECONDS, 0
        if node.kind == "composition":
            nested = _Analysis(
                node.composition, self.registry, purity_reports=self._purity
            ).summary
            seconds = max(nested.critical_path_seconds, DEFAULT_NODE_SECONDS)
            return seconds, nested.peak_inflight_bytes
        registry = self.registry
        if registry is None or not registry.has_function(node.function):
            return DEFAULT_NODE_SECONDS, 0
        binary = registry.function(node.function)
        modelled = binary.modelled_compute_seconds(input_bytes)
        seconds = (
            DEFAULT_NODE_SECONDS if modelled is None else max(float(modelled), 0.0)
        )
        return seconds, binary.memory_limit

    def _build_cost(self) -> CompositionCostSummary:
        """Fill multiplicity/level/seconds on the facts; return the summary."""
        composition, facts, out_card = self.composition, self.facts, self.out_card
        bound_inputs = {(b.node, b.node_set) for b in composition.inputs}
        bounded = True
        finish: dict[str, float] = {}
        critical_depth: dict[str, int] = {}
        total_seconds = 0.0

        for name in composition.topological_order:
            nf = facts[name]
            edges = self.incoming[name]
            fan_edges = self.fan_in[name]
            if fan_edges:
                cards = [out_card.get((e.source, e.source_set)) for e in fan_edges]
                nf.multiplicity = next((c for c in cards if c is not None), None)
                if nf.multiplicity is None:
                    bounded = False

            delivered_sets = len(edges) + sum(
                1 for node_name, _set in bound_inputs if node_name == name
            )
            nf.seconds, nf.bytes_estimate = self._node_cost(
                nf, delivered_sets * DEFAULT_SET_BYTES
            )

            preds = sorted({edge.source for edge in edges})
            nf.level = 1 + max((facts[p].level for p in preds), default=-1)
            finish[name] = (
                max((finish[p] for p in preds), default=0.0) + nf.seconds
            )
            critical_depth[name] = 1 + max(
                (critical_depth[p] for p in preds), default=0
            )
            total_seconds += nf.seconds * (nf.multiplicity or 1)

            # Static cardinality of this node's output sets, for CON003
            # and downstream multiplicities: instances x constant items.
            items = nf.report.written_items if nf.report is not None else None
            for set_name in nf.node.output_sets:
                card = None
                if items is not None and nf.multiplicity is not None:
                    constant = items.get(set_name)
                    if constant:
                        card = nf.multiplicity * len(constant)
                out_card[(name, set_name)] = card

        width = 0
        peak_bytes = 0
        by_level: dict[int, list] = {}
        for nf in facts.values():
            by_level.setdefault(nf.level, []).append(nf)
        for members in by_level.values():
            width = max(width, sum(nf.multiplicity or 1 for nf in members))
            peak_bytes = max(
                peak_bytes,
                sum(nf.bytes_estimate * (nf.multiplicity or 1) for nf in members),
            )

        deadline = composition.deadline_seconds
        critical_seconds = max(finish.values(), default=0.0)
        return CompositionCostSummary(
            composition=composition.name,
            node_count=len(composition.nodes),
            edge_count=len(composition.edges),
            critical_path_depth=max(critical_depth.values(), default=0),
            critical_path_seconds=critical_seconds,
            total_compute_seconds=total_seconds,
            max_parallel_width=width,
            peak_inflight_bytes=peak_bytes,
            statically_bounded=bounded,
            deadline_seconds=deadline,
            deadline_feasible=(
                None if deadline is None else critical_seconds <= deadline
            ),
            functions=tuple(sorted(composition.required_functions())),
        )

    # -- rules ---------------------------------------------------------------

    def run_rules(self, memory_capacity: Optional[int]) -> None:
        composition = self.composition
        consumed = {(edge.source, edge.source_set) for edge in composition.edges}
        consumed |= {(b.node, b.node_set) for b in composition.outputs}
        # node -> nodes reachable from it (excluding itself).
        reach: dict[str, set] = {name: set() for name in composition.nodes}
        for name in reversed(composition.topological_order):
            for edge in self.incoming[name]:
                reach[edge.source].add(name)
                reach[edge.source] |= reach[name]
        self._check_graph_shape(consumed, reach)
        self._check_never_written(consumed)
        self._check_unordered_writes(reach)
        self._check_unordered_reads(reach)
        self._check_alias_double_writes()
        self._check_fanout_collisions(consumed)
        self._check_cardinality()
        self._check_cost(memory_capacity)

    def _check_graph_shape(self, consumed, reach) -> None:
        composition = self.composition
        for node in composition.nodes.values():
            for set_name in node.output_sets:
                if (node.name, set_name) not in consumed:
                    self._emit(
                        "CMP001", WARNING,
                        f"output set {node.name}.{set_name} is never consumed",
                        "drop the set from the node interface or wire it "
                        "to a consumer",
                    )
        output_nodes = {binding.node for binding in composition.outputs}
        for name in composition.topological_order:
            if name not in output_nodes and not (reach[name] & output_nodes):
                self._emit(
                    "CMP002", WARNING,
                    f"vertex {name!r} cannot reach any composition output",
                    "its results are computed and discarded; bind an "
                    "output or remove the subgraph",
                )
        fan_edges = [edge for edges in self.fan_in.values() for edge in edges]
        for edge in fan_edges:
            if composition.nodes[edge.target].kind == "communication":
                self._emit(
                    "CMP003", WARNING,
                    f"{edge.distribution.value!r} edge "
                    f"{edge.source}.{edge.source_set} -> "
                    f"{edge.target}.{edge.target_set} fans out into "
                    "single-capacity communication vertex",
                    "each instance serializes its CPU share on one comm "
                    "engine; consider batching requests upstream",
                )
        for edge in fan_edges:
            if self.fan_in[edge.source]:
                self._emit(
                    "CMP003", WARNING,
                    f"chained {edge.distribution.value!r} fan-out through "
                    f"{edge.source!r}: instance counts multiply",
                    "instance count is the product of chained each/key "
                    "expansions; verify the input cardinalities bound it",
                )
        own_external = {b.external for b in composition.inputs}
        own_external |= {b.external for b in composition.outputs}
        for node in composition.nodes.values():
            if node.kind != "composition":
                continue
            nested = node.composition
            nested_external = {b.external for b in nested.inputs}
            nested_external |= {b.external for b in nested.outputs}
            for name in sorted(own_external & nested_external):
                self._emit(
                    "CMP004", WARNING,
                    f"nested composition {nested.name!r} (vertex {node.name!r}) "
                    f"exposes set {name!r}, shadowing a set of "
                    f"{composition.name!r}",
                    "rename one of the sets; shadowed names make edge "
                    "declarations ambiguous to readers",
                )

    def _check_never_written(self, consumed) -> None:
        """CMP005 for a direct producer, CON002 through nesting aliases."""
        for node_name, set_name in sorted(consumed):
            resolved = _resolve_producer(self.composition, node_name, set_name)
            if resolved is None:
                continue
            function_name, inner_set, crossed = resolved
            report = self._function_report(function_name)
            if report is None or report.written_sets is None or not report.analyzed:
                continue  # summary incomplete: stay silent rather than guess
            if inner_set in report.written_sets:
                continue
            if crossed:
                self._emit(
                    "CON002", ERROR,
                    f"consumed set {node_name}.{set_name} resolves through "
                    f"nested-composition aliases to {function_name!r}'s set "
                    f"{inner_set!r}, which the function provably never writes",
                    "the rename chain hides an always-empty set; write "
                    "the inner set or re-bind the nested output",
                )
            else:
                self._emit(
                    "CMP005", WARNING,
                    f"edge reads {node_name}.{set_name} but function "
                    f"{function_name!r} provably never writes set "
                    f"{set_name!r}",
                    "downstream vertices will receive an empty set; "
                    "write the set or re-wire the edge",
                )

    def _check_unordered_writes(self, reach) -> None:
        facts = self.facts
        names = sorted(facts)
        for i, left in enumerate(names):
            if not facts[left].undeclared_writes:
                continue
            for right in names[i + 1:]:
                if right in reach[left] or left in reach[right]:
                    continue  # DAG-ordered: the platform serializes them
                shared = (
                    facts[left].undeclared_writes & facts[right].undeclared_writes
                )
                for set_name in sorted(shared):
                    self._emit(
                        "RACE001", ERROR,
                        f"unordered nodes {left!r} and {right!r} both write "
                        f"set {set_name!r} outside their declared interfaces",
                        "declare the set in exactly one node's out(...) "
                        "and wire an edge, or rename one of the writes",
                    )

    def _check_unordered_reads(self, reach) -> None:
        facts = self.facts
        external_inputs = {b.external for b in self.composition.inputs}
        for reader in sorted(facts):
            for set_name in sorted(facts[reader].undeclared_reads):
                if set_name in external_inputs:
                    continue  # present in the context before any node runs
                # Declared outputs count as producers too: a sneak-read of
                # a set another node legitimately declares is a race (or a
                # hidden-but-ordered dependency), not a missing producer.
                writers = [
                    name
                    for name in sorted(facts)
                    if name != reader
                    and (
                        set_name in facts[name].undeclared_writes
                        or set_name in facts[name].declared_out
                    )
                ]
                if any(reader in reach[name] for name in writers):
                    continue  # a producer the DAG runs first: hidden but ordered
                if writers:
                    self._emit(
                        "RACE002", ERROR,
                        f"node {reader!r} reads set {set_name!r} which only "
                        f"DAG-unordered node(s) {', '.join(map(repr, writers))} "
                        "produce — the read races the write",
                        "declare the set on both interfaces and add an "
                        "edge so the platform orders producer before "
                        "consumer",
                    )
                else:
                    self._emit(
                        "CON001", ERROR,
                        f"node {reader!r} reads set {set_name!r} but no vertex "
                        "on any path produces it — the read is always empty",
                        "wire a producer, declare the set as an input, "
                        "or drop the read",
                    )

    def _check_alias_double_writes(self) -> None:
        for name in sorted(self.facts):
            for set_name in sorted(self.facts[name].alias_writes):
                self._emit(
                    "RACE004", ERROR,
                    f"node {name!r} writes set {set_name!r}, which is also "
                    "one of its declared input sets — the delivered "
                    "(renamed) input and the function's write collide on "
                    "one name",
                    "write to a distinct output set; renames along the "
                    "incoming edge already claimed this name",
                )

    def _check_fanout_collisions(self, consumed) -> None:
        for name in sorted(self.facts):
            nf = self.facts[name]
            if not self.fan_in[name] or nf.report is None:
                continue
            items = nf.report.written_items
            if items is None:
                continue
            for set_name in sorted(nf.declared_out):
                constant_items = items.get(set_name)
                if (name, set_name) not in consumed:
                    continue
                if not constant_items:
                    continue  # dynamic or absent item names: instances differ
                shown = ", ".join(sorted(constant_items))
                self._emit(
                    "RACE003", WARNING,
                    f"fan-out instances of node {name!r} all write constant "
                    f"item name(s) {shown} into set {set_name!r}; the merge "
                    "renames colliding items with an instance prefix",
                    "derive item names from the instance's input so "
                    "downstream readers can address them",
                )

    def _check_cardinality(self) -> None:
        for target in sorted(self.facts):
            edges = self.fan_in[target]
            kinds = {edge.distribution for edge in edges}
            if len(kinds) > 1:
                self._emit(
                    "CON003", ERROR,
                    f"node {target!r} mixes 'each' and 'key' incoming edges; "
                    "the instance expander rejects this at run time",
                    "use one distribution per node, or split the node",
                )
                continue
            if Distribution.EACH not in kinds:
                continue
            cards = []
            for edge in edges:
                card = self.out_card.get((edge.source, edge.source_set))
                if card is not None:
                    cards.append((edge, card))
            for (first_edge, first), (other_edge, other) in zip(cards, cards[1:]):
                if first != other:
                    self._emit(
                        "CON003", ERROR,
                        f"'each' edges into node {target!r} deliver provably "
                        f"different item counts ({first_edge.source}."
                        f"{first_edge.source_set}={first} vs "
                        f"{other_edge.source}.{other_edge.source_set}={other});"
                        " the zip would fail mid-invocation",
                        "'each' edges are zipped by position and must "
                        "deliver identical item counts",
                    )

    def _check_cost(self, memory_capacity: Optional[int]) -> None:
        summary = self.summary
        if summary.deadline_feasible is False:
            self._emit(
                "COST001", ERROR,
                f"declared deadline {summary.deadline_seconds}s is statically "
                f"unreachable: the critical path needs "
                f"{summary.critical_path_seconds:.6g}s even with unbounded "
                "parallelism",
                "raise the deadline, cut the chain depth, or lower the "
                "declared per-stage compute costs",
            )
        if summary.deadline_seconds is not None and not summary.statically_bounded:
            self._emit(
                "COST003", WARNING,
                "composition declares a deadline but its each/key fan-out "
                "cardinality is statically unbounded; the cost envelope is a "
                "lower bound only",
                "make producers emit statically-known item names, or "
                "accept admission on lower bounds",
            )
        if (
            memory_capacity is not None
            and summary.peak_inflight_bytes > memory_capacity
        ):
            self._emit(
                "COST002", WARNING,
                f"peak in-flight bytes estimate {summary.peak_inflight_bytes} "
                f"exceeds the {memory_capacity}-byte capacity",
                "shrink declared memory limits or narrow the widest "
                "parallel stage",
            )


# -- entry points ------------------------------------------------------------


def analyze_composition(
    composition: Composition,
    registry=None,
    *,
    file: Optional[str] = None,
    memory_capacity: Optional[int] = None,
) -> CompositionReport:
    """Run every CMP/RACE/CON/COST rule over one validated composition.

    ``registry`` supplies function binaries for the purity summaries;
    without it only the graph-structural rules and the default-cost
    envelope run.  ``memory_capacity`` arms COST002.
    """
    analysis = _Analysis(composition, registry, file)
    analysis.run_rules(memory_capacity)
    return CompositionReport(
        composition.name, analysis.diagnostics, analysis.summary
    )


def cost_summary(composition: Composition, registry=None) -> CompositionCostSummary:
    """Just the static cost envelope (no diagnostics).

    The dispatcher's admission path and scheduling hints use this — it
    skips the pairwise race sweep, so it stays cheap enough to run once
    per registered composition.
    """
    return _Analysis(composition, registry).summary


def analyze_dsl_source(
    source: str,
    library: Optional[dict] = None,
    registry=None,
    *,
    file: Optional[str] = None,
    line_offset: int = 0,
) -> tuple[Optional[Composition], list[Diagnostic]]:
    """Parse and analyze DSL source; parse failures become CMP000 errors."""
    try:
        composition = parse_composition(source, library=library or {})
    except CompositionError as exc:
        line = getattr(exc, "line", None)
        message = str(exc)
        if line is not None and line_offset:
            # DslError embeds its block-relative line in the message
            # ("line 3: ..."); re-line that prefix against the
            # embedding file too, not just the structured field.
            relined = line + line_offset
            message = re.sub(
                rf"^line {line}:", f"line {relined}:", message, count=1
            )
        return None, [
            Diagnostic(
                "CMP000", ERROR, message,
                file=file,
                line=(line + line_offset) if line is not None else None,
                symbol=None,
            )
        ]
    return composition, analyze_composition(
        composition, registry, file=file
    ).diagnostics


# A composition block in free text: the grammar has exactly one brace
# level, so a non-greedy brace match is sufficient.
_DSL_BLOCK = re.compile(r"composition\s+\w+\s*\{[^{}]*\}", re.DOTALL)


def extract_dsl_blocks(text: str) -> list[tuple[str, int]]:
    """Composition-language blocks embedded in ``text``.

    Returns ``(source, line_offset)`` pairs, where ``line_offset`` is
    the number of lines preceding the block in ``text`` (so block line
    1 maps to file line ``line_offset + 1``).
    """
    blocks = []
    for match in _DSL_BLOCK.finditer(text):
        offset = text.count("\n", 0, match.start())
        blocks.append((match.group(0), offset))
    return blocks
