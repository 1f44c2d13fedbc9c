"""Composition graphs — Dandelion's declarative programming model (§4.1).

A complete Dandelion program (a *composition*) is a graph ``G = (V,E)``
where vertices are (i) user-provided compute functions, (ii)
platform-provided communication functions, or (iii) nested
compositions.  A directed edge ``(V1, V2, M)`` states that one output
set of ``V1`` is an input set of ``V2``; the metadata descriptor ``M``
names the two sets and carries a distribution keyword — ``all``,
``each`` or ``key`` — saying whether all items go to one downstream
instance, each item to its own instance, or items are grouped by key.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Distribution",
    "ComputeNode",
    "CommunicationNode",
    "CompositionNode",
    "Edge",
    "InputBinding",
    "OutputBinding",
    "Composition",
    "CompositionError",
]


class CompositionError(Exception):
    """Raised when a composition graph is malformed."""


class Distribution(enum.Enum):
    """How items on an edge are spread over downstream instances."""

    ALL = "all"    # every item to a single instance
    EACH = "each"  # one instance per item
    KEY = "key"    # one instance per distinct item key

    @classmethod
    def parse(cls, word: str) -> "Distribution":
        try:
            return cls(word.lower())
        except ValueError:
            raise CompositionError(
                f"unknown distribution {word!r}; expected one of all/each/key"
            ) from None


@dataclass(frozen=True)
class ComputeNode:
    """A vertex running user-provided pure compute code.

    ``function`` names the registered function binary; ``input_sets``
    and ``output_sets`` are the declared interface.
    """

    name: str
    function: str
    input_sets: tuple[str, ...]
    output_sets: tuple[str, ...]

    kind = "compute"

    def __post_init__(self):
        _check_node_sets(self)


# Communication functions have a fixed platform-defined interface:
# they consume formatted requests and produce responses.
COMM_INPUT_SET = "request"
COMM_OUTPUT_SET = "response"


@dataclass(frozen=True)
class CommunicationNode:
    """A vertex invoking a platform communication function.

    The implementation is trusted platform code (users can invoke but
    not modify it).  It speaks HTTP, the one protocol of the prototype.
    """

    name: str

    kind = "communication"
    input_sets: tuple[str, ...] = (COMM_INPUT_SET,)
    output_sets: tuple[str, ...] = (COMM_OUTPUT_SET,)

    def __post_init__(self):
        if not self.name:
            raise CompositionError("node name must be non-empty")


@dataclass(frozen=True)
class CompositionNode:
    """A vertex that is itself a composition (nesting, §4.1)."""

    name: str
    composition: "Composition"

    kind = "composition"

    @property
    def input_sets(self) -> tuple[str, ...]:
        return tuple(binding.external for binding in self.composition.inputs)

    @property
    def output_sets(self) -> tuple[str, ...]:
        return tuple(binding.external for binding in self.composition.outputs)


def _check_node_sets(node) -> None:
    if not node.name:
        raise CompositionError("node name must be non-empty")
    for group_name, group in (("input", node.input_sets), ("output", node.output_sets)):
        if len(set(group)) != len(group):
            raise CompositionError(f"duplicate {group_name} set on node {node.name!r}")


@dataclass(frozen=True)
class Edge:
    """Directed dataflow edge with its metadata descriptor."""

    source: str       # node name
    source_set: str   # output set of source
    target: str       # node name
    target_set: str   # input set of target
    distribution: Distribution = Distribution.ALL


@dataclass(frozen=True)
class InputBinding:
    """Maps a composition-level input name onto a node input set."""

    external: str
    node: str
    node_set: str


@dataclass(frozen=True)
class OutputBinding:
    """Maps a node output set onto a composition-level output name."""

    external: str
    node: str
    node_set: str


class Composition:
    """A validated DAG of compute/communication/composition vertices."""

    def __init__(
        self,
        name: str,
        nodes: list,
        edges: list[Edge],
        inputs: list[InputBinding],
        outputs: list[OutputBinding],
        *,
        deadline_seconds: Optional[float] = None,
    ):
        if not name:
            raise CompositionError("composition name must be non-empty")
        if deadline_seconds is not None:
            deadline_seconds = float(deadline_seconds)
            if deadline_seconds <= 0:
                raise CompositionError(
                    f"deadline must be positive, got {deadline_seconds}"
                )
        self.name = name
        # Declared end-to-end latency target; the static cost analysis
        # (repro.analysis.compositions) checks the critical path against it
        # and the dispatcher can use it for admission.
        self.deadline_seconds = deadline_seconds
        self.nodes = {node.name: node for node in nodes}
        if len(self.nodes) != len(nodes):
            raise CompositionError("duplicate node names")
        self.edges = list(edges)
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self._validate()

    # -- validation -------------------------------------------------------

    def _validate(self) -> None:
        self._validate_edges()
        self._validate_bindings()
        self._validate_feeds()
        self._topo_order = self._topological_order()

    def _validate_edges(self) -> None:
        for edge in self.edges:
            source = self.nodes.get(edge.source)
            target = self.nodes.get(edge.target)
            if source is None:
                raise CompositionError(f"edge references unknown node {edge.source!r}")
            if target is None:
                raise CompositionError(f"edge references unknown node {edge.target!r}")
            if edge.source_set not in source.output_sets:
                raise CompositionError(
                    f"{edge.source!r} has no output set {edge.source_set!r}"
                )
            if edge.target_set not in target.input_sets:
                raise CompositionError(
                    f"{edge.target!r} has no input set {edge.target_set!r}"
                )

    def _validate_bindings(self) -> None:
        seen_external = set()
        for binding in self.inputs:
            if binding.external in seen_external:
                raise CompositionError(f"duplicate input binding {binding.external!r}")
            seen_external.add(binding.external)
            node = self.nodes.get(binding.node)
            if node is None or binding.node_set not in node.input_sets:
                raise CompositionError(
                    f"input binding targets unknown set {binding.node}.{binding.node_set}"
                )
        seen_external = set()
        for binding in self.outputs:
            if binding.external in seen_external:
                raise CompositionError(f"duplicate output binding {binding.external!r}")
            seen_external.add(binding.external)
            node = self.nodes.get(binding.node)
            if node is None or binding.node_set not in node.output_sets:
                raise CompositionError(
                    f"output binding references unknown set {binding.node}.{binding.node_set}"
                )
        if not self.outputs:
            raise CompositionError("composition must declare at least one output")

    def _validate_feeds(self) -> None:
        # Every node input set must be fed by exactly one source (an
        # edge or a composition input); otherwise the function would
        # never become ready, or would race on two producers.
        feeds: dict[tuple[str, str], int] = {}
        for edge in self.edges:
            feeds[(edge.target, edge.target_set)] = feeds.get((edge.target, edge.target_set), 0) + 1
        for binding in self.inputs:
            feeds[(binding.node, binding.node_set)] = feeds.get((binding.node, binding.node_set), 0) + 1
        for node in self.nodes.values():
            for set_name in node.input_sets:
                count = feeds.get((node.name, set_name), 0)
                if count == 0:
                    raise CompositionError(
                        f"input set {node.name}.{set_name} has no producer"
                    )
                if count > 1:
                    raise CompositionError(
                        f"input set {node.name}.{set_name} has {count} producers"
                    )

    def _topological_order(self) -> list[str]:
        indegree = {name: 0 for name in self.nodes}
        successors: dict[str, list[str]] = {name: [] for name in self.nodes}
        for edge in self.edges:
            indegree[edge.target] += 1
            successors[edge.source].append(edge.target)
        ready = sorted(name for name, degree in indegree.items() if degree == 0)
        order: list[str] = []
        while ready:
            name = ready.pop(0)
            order.append(name)
            for successor in successors[name]:
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self.nodes):
            raise CompositionError(f"composition {self.name!r} contains a cycle")
        return order

    # -- queries ----------------------------------------------------------

    @property
    def topological_order(self) -> list[str]:
        """Node names in a valid execution order."""
        return list(self._topo_order)

    def incoming_edges(self, node_name: str) -> list[Edge]:
        return [edge for edge in self.edges if edge.target == node_name]

    def outgoing_edges(self, node_name: str) -> list[Edge]:
        return [edge for edge in self.edges if edge.source == node_name]

    def compute_nodes(self) -> list[ComputeNode]:
        return [n for n in self.nodes.values() if n.kind == "compute"]

    def required_functions(self) -> set[str]:
        """Names of all function binaries this composition (recursively) needs."""
        needed = {node.function for node in self.compute_nodes()}
        for node in self.nodes.values():
            if node.kind == "composition":
                needed |= node.composition.required_functions()
        return needed

    def __repr__(self) -> str:
        return (
            f"Composition({self.name!r}, {len(self.nodes)} nodes, "
            f"{len(self.edges)} edges)"
        )
