"""Unit tests for the composition-language parser."""

import pytest

from repro.composition import (
    CommunicationNode,
    Composition,
    Distribution,
    DslError,
    composition_to_dsl,
    parse_composition,
)

LOGPROC = """
# Distributed log processing (Fig 3).
composition logproc {
    compute access uses access_fn in(token) out(request);
    comm auth protocol http;
    compute fanout uses fanout_fn in(endpoints) out(requests);
    comm fetch protocol http;
    compute render uses render_fn in(pages) out(html);

    input token -> access.token;
    access.request -> auth.request [all];
    auth.response -> fanout.endpoints [all];
    fanout.requests -> fetch.request [each];
    fetch.response -> render.pages [all];
    output render.html -> result;
}
"""


def test_parse_logproc_shape():
    composition = parse_composition(LOGPROC)
    assert composition.name == "logproc"
    assert set(composition.nodes) == {"access", "auth", "fanout", "fetch", "render"}
    assert len(composition.edges) == 4
    assert [b.external for b in composition.inputs] == ["token"]
    assert [b.external for b in composition.outputs] == ["result"]


def test_parse_distribution_keywords():
    composition = parse_composition(LOGPROC)
    edge_by_target = {e.target: e for e in composition.edges}
    assert edge_by_target["fetch"].distribution is Distribution.EACH
    assert edge_by_target["auth"].distribution is Distribution.ALL


def test_default_distribution_is_all():
    source = """
    composition c {
        compute a uses f in(x) out(y);
        compute b uses g in(y) out(z);
        input x -> a.x;
        a.y -> b.y;
        output b.z -> z;
    }
    """
    composition = parse_composition(source)
    assert composition.edges[0].distribution is Distribution.ALL


def test_comm_default_protocol_http():
    source = """
    composition c {
        compute a uses f in(x) out(request);
        comm h;
        input x -> a.x;
        a.request -> h.request;
        output h.response -> r;
    }
    """
    composition = parse_composition(source)
    assert composition.nodes["h"] == CommunicationNode("h")
    explicit = parse_composition(source.replace("comm h;", "comm h protocol http;"))
    assert explicit.nodes == composition.nodes


def _shape(composition):
    return composition.nodes, composition.edges, composition.inputs, composition.outputs


def test_protocol_http_round_trips_through_the_printer():
    composition = parse_composition(LOGPROC)
    printed = composition_to_dsl(composition)
    assert "comm auth protocol http;" in printed
    assert "comm fetch protocol http;" in printed
    assert _shape(parse_composition(printed)) == _shape(composition)


def test_unknown_protocol_is_a_dsl_error_naming_its_line():
    source = """composition c {
    compute a uses f in(x) out(request);
    comm c protocol kv;
    input x -> a.x;
    a.request -> c.request;
    output c.response -> r;
}"""
    with pytest.raises(DslError, match="unsupported protocol 'kv'") as exc_info:
        parse_composition(source)
    assert exc_info.value.line == 3
    assert "line 3" in str(exc_info.value)


def test_multiple_io_sets():
    source = """
    composition c {
        compute join uses join_fn in(left, right) out(merged, stats);
        input l -> join.left;
        input r -> join.right;
        output join.merged -> merged;
        output join.stats -> stats;
    }
    """
    composition = parse_composition(source)
    node = composition.nodes["join"]
    assert node.input_sets == ("left", "right")
    assert node.output_sets == ("merged", "stats")


def test_comments_ignored():
    source = """
    # leading comment
    composition c { # trailing
        compute a uses f in(x) out(y); # another
        input x -> a.x;
        output a.y -> y;
    }
    """
    assert parse_composition(source).name == "c"


def test_nested_composition_via_library():
    inner = parse_composition(
        """
        composition inner {
            compute a uses f in(x) out(y);
            input x -> a.x;
            output a.y -> y;
        }
        """
    )
    outer = parse_composition(
        """
        composition outer {
            compute pre uses p in(raw) out(x);
            compose sub uses inner;
            input raw -> pre.raw;
            pre.x -> sub.x;
            output sub.y -> y;
        }
        """,
        library={"inner": inner},
    )
    assert outer.nodes["sub"].composition is inner


def test_unknown_nested_composition_rejected():
    with pytest.raises(DslError, match="unknown composition"):
        parse_composition(
            """
            composition outer {
                compose sub uses ghost;
                output sub.y -> y;
            }
            """
        )


def test_empty_source_rejected():
    with pytest.raises(DslError, match="empty"):
        parse_composition("   \n  ")


def test_missing_semicolon_reports_line():
    source = """composition c {
    compute a uses f in(x) out(y)
    input x -> a.x;
    output a.y -> y;
}"""
    with pytest.raises(DslError) as exc_info:
        parse_composition(source)
    assert "line 3" in str(exc_info.value)


def test_missing_closing_brace():
    with pytest.raises(DslError, match="unexpected end|missing closing"):
        parse_composition("composition c { compute a uses f in(x) out(y);")


def test_bad_distribution_keyword():
    source = """
    composition c {
        compute a uses f in(x) out(y);
        compute b uses g in(y) out(z);
        input x -> a.x;
        a.y -> b.y [sideways];
        output b.z -> z;
    }
    """
    with pytest.raises(DslError, match="unknown distribution"):
        parse_composition(source)


def test_unexpected_character():
    with pytest.raises(DslError, match="unexpected character"):
        parse_composition("composition c { compute a uses f in(x) out(y); @ }")


def test_semantic_error_surfaces_as_dsl_error():
    # Cycle: a -> b -> a
    source = """
    composition c {
        compute a uses f in(x) out(y);
        compute b uses g in(y) out(x);
        a.y -> b.y;
        b.x -> a.x;
        output b.x -> r;
    }
    """
    with pytest.raises(DslError, match="cycle"):
        parse_composition(source)


def test_trailing_tokens_rejected():
    source = """
    composition c {
        compute a uses f in(x) out(y);
        input x -> a.x;
        output a.y -> y;
    }
    leftover
    """
    with pytest.raises(DslError, match="trailing"):
        parse_composition(source)


def test_parse_result_is_validated_composition():
    composition = parse_composition(LOGPROC)
    assert isinstance(composition, Composition)
    # Topological order respects the pipeline direction.
    order = composition.topological_order
    assert order.index("access") < order.index("auth") < order.index("fanout")
    assert order.index("fetch") < order.index("render")


# -- parse-error corpus (shared with tests/analysis/test_composition_lint) --


def test_malformed_corpus_rejected_with_messages():
    from repro.composition import CompositionError
    from tests.analysis.corpus import MALFORMED

    for name, source, expected in MALFORMED:
        with pytest.raises(CompositionError, match=expected):
            parse_composition(source)


def test_malformed_corpus_errors_carry_line_numbers():
    from tests.analysis.corpus import MALFORMED

    for name, source, _expected in MALFORMED:
        try:
            parse_composition(source)
        except DslError as exc:
            assert exc.line >= 1, name
        except Exception:
            pass  # node-level CompositionErrors have no line info


def test_valid_corpus_pipeline_parses():
    from tests.analysis.corpus import VALID_PIPELINE

    composition = parse_composition(VALID_PIPELINE)
    assert composition.name == "pipeline"
    assert composition.topological_order == ["first", "second"]
