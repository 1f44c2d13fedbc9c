"""Unit tests for the composition graph model and validation."""

import pytest

from repro.composition import (
    CommunicationNode,
    Composition,
    CompositionError,
    CompositionNode,
    ComputeNode,
    Distribution,
    Edge,
    InputBinding,
    OutputBinding,
)


def linear_pipeline():
    """in -> a -> b -> out"""
    a = ComputeNode("a", "fn_a", ("x",), ("y",))
    b = ComputeNode("b", "fn_b", ("y",), ("z",))
    return Composition(
        "pipe",
        [a, b],
        [Edge("a", "y", "b", "y")],
        [InputBinding("x", "a", "x")],
        [OutputBinding("z", "b", "z")],
    )


def test_compute_node_rejects_duplicate_sets():
    with pytest.raises(CompositionError):
        ComputeNode("n", "f", ("a", "a"), ("b",))
    with pytest.raises(CompositionError):
        ComputeNode("n", "f", ("a",), ("b", "b"))


def test_compute_node_rejects_empty_name():
    with pytest.raises(CompositionError):
        ComputeNode("", "f", ("a",), ("b",))


def test_communication_node_fixed_interface():
    node = CommunicationNode("http1")
    assert node.input_sets == ("request",)
    assert node.output_sets == ("response",)
    assert node.kind == "communication"


def test_distribution_parse():
    assert Distribution.parse("ALL") is Distribution.ALL
    assert Distribution.parse("each") is Distribution.EACH
    assert Distribution.parse("key") is Distribution.KEY
    with pytest.raises(CompositionError):
        Distribution.parse("bogus")


def test_valid_linear_pipeline():
    composition = linear_pipeline()
    assert composition.topological_order == ["a", "b"]
    assert composition.required_functions() == {"fn_a", "fn_b"}


def test_duplicate_node_names_rejected():
    a1 = ComputeNode("a", "f", ("x",), ("y",))
    a2 = ComputeNode("a", "g", ("x",), ("y",))
    with pytest.raises(CompositionError):
        Composition("c", [a1, a2], [], [InputBinding("x", "a", "x")], [OutputBinding("y", "a", "y")])


def test_edge_unknown_node_rejected():
    a = ComputeNode("a", "f", ("x",), ("y",))
    with pytest.raises(CompositionError, match="unknown node"):
        Composition(
            "c", [a], [Edge("a", "y", "ghost", "x")],
            [InputBinding("x", "a", "x")], [OutputBinding("y", "a", "y")],
        )


def test_edge_unknown_set_rejected():
    a = ComputeNode("a", "f", ("x",), ("y",))
    b = ComputeNode("b", "g", ("p",), ("q",))
    with pytest.raises(CompositionError, match="no output set"):
        Composition(
            "c", [a, b], [Edge("a", "nope", "b", "p")],
            [InputBinding("x", "a", "x")], [OutputBinding("q", "b", "q")],
        )
    with pytest.raises(CompositionError, match="no input set"):
        Composition(
            "c", [a, b], [Edge("a", "y", "b", "nope")],
            [InputBinding("x", "a", "x")], [OutputBinding("q", "b", "q")],
        )


def test_unfed_input_set_rejected():
    a = ComputeNode("a", "f", ("x", "extra"), ("y",))
    with pytest.raises(CompositionError, match="no producer"):
        Composition(
            "c", [a], [], [InputBinding("x", "a", "x")], [OutputBinding("y", "a", "y")]
        )


def test_doubly_fed_input_set_rejected():
    a = ComputeNode("a", "f", ("x",), ("y",))
    b = ComputeNode("b", "g", ("x",), ("y",))
    c = ComputeNode("c", "h", ("x",), ("y",))
    with pytest.raises(CompositionError, match="2 producers"):
        Composition(
            "c",
            [a, b, c],
            [Edge("a", "y", "c", "x"), Edge("b", "y", "c", "x")],
            [InputBinding("x1", "a", "x"), InputBinding("x2", "b", "x")],
            [OutputBinding("y", "c", "y")],
        )


def test_cycle_rejected():
    a = ComputeNode("a", "f", ("x",), ("y",))
    b = ComputeNode("b", "g", ("y",), ("x",))
    with pytest.raises(CompositionError, match="cycle"):
        Composition(
            "c",
            [a, b],
            [Edge("a", "y", "b", "y"), Edge("b", "x", "a", "x")],
            [],
            [OutputBinding("x", "b", "x")],
        )


def test_missing_output_binding_rejected():
    a = ComputeNode("a", "f", ("x",), ("y",))
    with pytest.raises(CompositionError, match="at least one output"):
        Composition("c", [a], [], [InputBinding("x", "a", "x")], [])


def test_duplicate_external_input_rejected():
    a = ComputeNode("a", "f", ("x", "w"), ("y",))
    with pytest.raises(CompositionError, match="duplicate input"):
        Composition(
            "c", [a], [],
            [InputBinding("same", "a", "x"), InputBinding("same", "a", "w")],
            [OutputBinding("y", "a", "y")],
        )


def test_input_binding_unknown_set_rejected():
    a = ComputeNode("a", "f", ("x",), ("y",))
    with pytest.raises(CompositionError, match="input binding"):
        Composition(
            "c", [a], [], [InputBinding("x", "a", "ghost")], [OutputBinding("y", "a", "y")]
        )


def test_output_binding_unknown_set_rejected():
    a = ComputeNode("a", "f", ("x",), ("y",))
    with pytest.raises(CompositionError, match="output binding"):
        Composition(
            "c", [a], [], [InputBinding("x", "a", "x")], [OutputBinding("z", "a", "ghost")]
        )


def test_diamond_topology_and_queries():
    source = ComputeNode("source", "f", ("x",), ("y",))
    left = ComputeNode("left", "g", ("y",), ("l",))
    right = ComputeNode("right", "h", ("y",), ("r",))
    sink = ComputeNode("sink", "k", ("l", "r"), ("z",))
    composition = Composition(
        "diamond",
        [source, left, right, sink],
        [
            Edge("source", "y", "left", "y", Distribution.EACH),
            Edge("source", "y", "right", "y"),
            Edge("left", "l", "sink", "l"),
            Edge("right", "r", "sink", "r"),
        ],
        [InputBinding("x", "source", "x")],
        [OutputBinding("z", "sink", "z")],
    )
    order = composition.topological_order
    assert order[0] == "source"
    assert order[-1] == "sink"
    assert {e.target for e in composition.outgoing_edges("source")} == {"left", "right"}
    assert {e.source for e in composition.incoming_edges("sink")} == {"left", "right"}
    consumers = composition.outgoing_edges("source")
    assert [edge.distribution for edge in consumers] == [Distribution.EACH, Distribution.ALL]


def test_nested_composition_node_interface():
    inner = linear_pipeline()
    node = CompositionNode("sub", inner)
    assert node.input_sets == ("x",)
    assert node.output_sets == ("z",)
    assert node.kind == "composition"


def test_nested_composition_required_functions_recursive():
    inner = linear_pipeline()
    outer_node = CompositionNode("sub", inner)
    pre = ComputeNode("pre", "fn_pre", ("raw",), ("x",))
    outer = Composition(
        "outer",
        [pre, outer_node],
        [Edge("pre", "x", "sub", "x")],
        [InputBinding("raw", "pre", "raw")],
        [OutputBinding("z", "sub", "z")],
    )
    assert outer.required_functions() == {"fn_pre", "fn_a", "fn_b"}


def test_comm_node_in_composition():
    prepare = ComputeNode("prepare", "prep", ("input",), ("request",))
    http = CommunicationNode("http")
    composition = Composition(
        "fetch",
        [prepare, http],
        [Edge("prepare", "request", "http", "request")],
        [InputBinding("input", "prepare", "input")],
        [OutputBinding("response", "http", "response")],
    )
    assert composition.nodes["http"] is http and http.kind == "communication"
    assert composition.compute_nodes() == [prepare]
