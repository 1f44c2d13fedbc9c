"""Composition analyzer: CMP rules and DSL-block extraction."""

from repro.analysis.compositions import (
    analyze_composition,
    analyze_dsl_source,
    extract_dsl_blocks,
)
from repro.composition import Registry, parse_composition
from repro.composition.registry import FunctionBinary
from repro.functions.sdk import write_item

from .corpus import LINTABLE, MALFORMED, VALID_PIPELINE


def _codes(diagnostics):
    return {d.code for d in diagnostics}


def _lintable(name):
    for case_name, source, code in LINTABLE:
        if case_name == name:
            return source, code
    raise KeyError(name)


def test_valid_pipeline_is_clean():
    composition = parse_composition(VALID_PIPELINE)
    assert analyze_composition(composition).diagnostics == []


def test_malformed_sources_become_cmp000():
    for name, source, expected in MALFORMED:
        composition, diagnostics = analyze_dsl_source(source, file=f"{name}.dsl")
        assert composition is None, name
        assert _codes(diagnostics) == {"CMP000"}, name
        assert expected in diagnostics[0].message, name


def test_cmp000_line_offset_applied():
    _composition, diagnostics = analyze_dsl_source(
        "composition broken {", file="embedded.py", line_offset=100
    )
    assert diagnostics[0].code == "CMP000"
    assert diagnostics[0].line and diagnostics[0].line > 100


def test_unused_output_set_flagged():
    source, code = _lintable("unused_output_set")
    composition, diagnostics = analyze_dsl_source(source)
    assert code in _codes(diagnostics)
    assert any("debug" in d.message for d in diagnostics)


def test_dead_end_vertex_flagged():
    source, code = _lintable("dead_end_vertex")
    _composition, diagnostics = analyze_dsl_source(source)
    assert code in _codes(diagnostics)
    assert any("sink" in d.message for d in diagnostics if d.code == "CMP002")


def test_fanout_into_comm_flagged():
    source, code = _lintable("fanout_into_comm")
    _composition, diagnostics = analyze_dsl_source(source)
    assert code in _codes(diagnostics)


def test_chained_fanout_flagged():
    source = """
    composition chained {
        compute a uses f in(x) out(ys);
        compute b uses g in(y) out(zs);
        compute c uses h in(z) out(w);
        input x -> a.x;
        a.ys -> b.y [each];
        b.zs -> c.z [each];
        output c.w -> result;
    }
    """
    _composition, diagnostics = analyze_dsl_source(source)
    assert any(
        d.code == "CMP003" and "multiply" in d.message for d in diagnostics
    )


def test_shadowed_set_names_flagged():
    inner = parse_composition(
        """
        composition inner {
            compute a uses f in(x) out(result);
            input x -> a.x;
            output a.result -> result;
        }
        """
    )
    outer = parse_composition(
        """
        composition outer {
            compose stage uses inner;
            compute post uses g in(r) out(result);
            input x -> stage.x;
            stage.result -> post.r [all];
            output post.result -> result;
        }
        """,
        library={"inner": inner},
    )
    diagnostics = analyze_composition(outer).diagnostics
    assert "CMP004" in _codes(diagnostics)


def test_never_written_set_flagged_with_registry():
    def writes_wrong_set(vfs):
        write_item(vfs, "other", "item", b"")

    registry = Registry()
    registry.register_function(
        FunctionBinary(name="first_fn", entry_point=writes_wrong_set)
    )
    registry.register_function(
        FunctionBinary(name="second_fn", entry_point=writes_wrong_set)
    )
    composition = parse_composition(VALID_PIPELINE)
    diagnostics = analyze_composition(composition, registry).diagnostics
    cmp005 = [d for d in diagnostics if d.code == "CMP005"]
    assert cmp005  # first.y consumed but first_fn writes only "other"
    assert any("never writes" in d.message for d in cmp005)


def test_untrusted_write_summary_stays_silent():
    def opaque_writer(vfs):
        helper = getattr(vfs, "write_bytes")
        helper("/out/y/item", b"")  # dynamic: summary cannot be trusted

    registry = Registry()
    for name in ("first_fn", "second_fn"):
        registry.register_function(
            FunctionBinary(name=name, entry_point=opaque_writer)
        )
    composition = parse_composition(VALID_PIPELINE)
    diagnostics = analyze_composition(composition, registry).diagnostics
    assert not [d for d in diagnostics if d.code == "CMP005"]


def test_extract_dsl_blocks_offsets():
    text = "preamble\n\n" + VALID_PIPELINE + "\ntrailer\n"
    blocks = extract_dsl_blocks(text)
    assert len(blocks) == 1
    source, offset = blocks[0]
    assert source.startswith("composition pipeline")
    assert offset == 3  # "preamble", blank, leading newline of the block
    composition, diagnostics = analyze_dsl_source(source, line_offset=offset)
    assert composition is not None and diagnostics == []


def test_extract_dsl_blocks_none_in_plain_text():
    assert extract_dsl_blocks("def composition():\n    pass\n") == []


def test_cmp000_message_relined_to_embedding_file():
    # The diag line was always file-absolute, but the message used to
    # keep the block-relative "line N:" prefix — confusing for every
    # multi-block script.  Both must agree now.
    bad = "composition b {\n    compute w uses f in(src) out(;\n}\n"
    _composition, diagnostics = analyze_dsl_source(
        bad, file="mod.py", line_offset=40
    )
    assert diagnostics[0].code == "CMP000"
    assert diagnostics[0].line == 42
    assert "line 42:" in diagnostics[0].message
    assert "line 2:" not in diagnostics[0].message


def test_cmp000_second_block_of_multiblock_script():
    text = (
        "preamble\n\n"
        + VALID_PIPELINE
        + "\ncomposition second_broken {\n    compute w uses f in(src out(dst);\n}\n"
    )
    blocks = extract_dsl_blocks(text)
    assert len(blocks) == 2
    source, offset = blocks[1]
    _composition, diagnostics = analyze_dsl_source(
        source, file="multi.py", line_offset=offset
    )
    assert diagnostics[0].code == "CMP000"
    expected_line = text[: text.index("in(src out(")].count("\n") + 1
    assert diagnostics[0].line == expected_line
    assert f"line {expected_line}:" in diagnostics[0].message
