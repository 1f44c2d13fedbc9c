"""Round-trip tests for the composition-language printer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.composition import (
    CommunicationNode,
    Composition,
    CompositionNode,
    ComputeNode,
    Distribution,
    Edge,
    InputBinding,
    OutputBinding,
    composition_to_dsl,
    parse_composition,
)


def roundtrip(composition, library=None):
    return parse_composition(composition_to_dsl(composition), library=library or {})


def test_simple_roundtrip():
    original = parse_composition("""
        composition simple {
            compute a uses f in(x) out(y);
            input x -> a.x;
            output a.y -> y;
        }
    """)
    restored = roundtrip(original)
    assert restored.name == original.name
    assert set(restored.nodes) == set(original.nodes)
    assert restored.edges == original.edges
    assert restored.inputs == original.inputs
    assert restored.outputs == original.outputs


def test_roundtrip_with_comm_and_distributions():
    original = parse_composition("""
        composition full {
            compute gen uses g in(seed) out(requests);
            comm http protocol http;
            compute agg uses a in(pages) out(html);
            input seed -> gen.seed;
            gen.requests -> http.request [each];
            http.response -> agg.pages [all];
            output agg.html -> report;
        }
    """)
    restored = roundtrip(original)
    edge_by_target = {e.target: e for e in restored.edges}
    assert edge_by_target["http"].distribution is Distribution.EACH
    assert restored.nodes["http"] == original.nodes["http"]


def test_roundtrip_nested_composition():
    inner = parse_composition("""
        composition inner {
            compute a uses f in(x) out(y);
            input x -> a.x;
            output a.y -> y;
        }
    """)
    outer = Composition(
        "outer",
        [ComputeNode("pre", "p", ("raw",), ("x",)), CompositionNode("sub", inner)],
        [Edge("pre", "x", "sub", "x")],
        [InputBinding("raw", "pre", "raw")],
        [OutputBinding("y", "sub", "y")],
    )
    source = composition_to_dsl(outer)
    assert "compose sub uses inner;" in source
    restored = parse_composition(source, library={"inner": inner})
    assert restored.nodes["sub"].composition is inner


def test_printed_source_is_readable():
    original = parse_composition("""
        composition pretty {
            compute a uses f in(x) out(y);
            input x -> a.x;
            output a.y -> out;
        }
    """)
    source = composition_to_dsl(original)
    assert source.startswith("composition pretty {")
    assert source.endswith("}")
    assert "    compute a uses f in(x) out(y);" in source


_names = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.sampled_from(list(Distribution)), min_size=0, max_size=3),
)
def test_property_linear_chain_roundtrip(length, distributions):
    # Build a linear chain of `length` compute nodes with random edge
    # distributions; print + parse must preserve the whole structure.
    nodes = [
        ComputeNode(f"n{i}", f"fn{i}", (f"in{i}",), (f"out{i}",))
        for i in range(length)
    ]
    edges = []
    for i in range(length - 1):
        dist = distributions[i % len(distributions)] if distributions else Distribution.ALL
        edges.append(Edge(f"n{i}", f"out{i}", f"n{i+1}", f"in{i+1}", dist))
    composition = Composition(
        "chain",
        nodes,
        edges,
        [InputBinding("start", "n0", "in0")],
        [OutputBinding("end", f"n{length-1}", f"out{length-1}")],
    )
    restored = roundtrip(composition)
    assert restored.topological_order == composition.topological_order
    assert restored.edges == composition.edges

