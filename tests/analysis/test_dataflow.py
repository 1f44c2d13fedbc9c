"""Composition analyzer: RACE/CON/COST rules and the cost summary."""

import pytest

from repro.analysis.compositions import (
    CompositionCostSummary,
    analyze_composition,
    cost_summary,
)
from repro.analysis.runner import demo_registry
from repro.composition import Composition, CompositionError
from repro.composition.dsl import DslError, parse_composition
from repro.composition.printer import composition_to_dsl

from .dataflow_corpus import CORPUS, analyze_corpus, build_registry

ALL_RULES = (
    "RACE001", "RACE002", "RACE003", "RACE004",
    "CON001", "CON002", "CON003",
    "COST001", "COST003",
)


@pytest.fixture(scope="module")
def registry():
    return build_registry()


@pytest.fixture(scope="module")
def corpus_reports(registry):
    return analyze_corpus(registry)


def _codes(report):
    return {d.code for d in report.diagnostics}


# -- corpus recall -------------------------------------------------------------


@pytest.mark.parametrize("entry", CORPUS, ids=[e.name for e in CORPUS])
def test_corpus_entry_is_flagged(entry, corpus_reports):
    report = corpus_reports[entry.name]
    fired = _codes(report)
    assert set(entry.expected_codes) <= fired, (
        f"{entry.name}: expected {entry.expected_codes}, fired {sorted(fired)}"
    )


def test_corpus_meets_acceptance_floor():
    assert len(CORPUS) >= 15


def test_every_rule_fires_somewhere(corpus_reports):
    fired = {
        d.code for report in corpus_reports.values() for d in report.diagnostics
    }
    assert set(ALL_RULES) <= fired, sorted(set(ALL_RULES) - fired)


def test_corpus_entries_fire_only_expected_families(corpus_reports):
    # Each seeded violation is surgical: the report must not drown the
    # expected code in unrelated errors (RACE003 warnings may ride
    # along on the cardinality entries, which reuse a fan-out shape).
    for entry in CORPUS:
        report = corpus_reports[entry.name]
        errors = {d.code for d in report.diagnostics if d.severity == "error"}
        unexpected = errors - set(entry.expected_codes)
        assert not unexpected, f"{entry.name}: unexpected errors {unexpected}"


def test_report_ok_reflects_error_severity(corpus_reports):
    race = corpus_reports["race_ww_parallel"]
    assert not race.ok
    fanout = corpus_reports["race_fanout_each"]  # RACE003 is warning-only
    assert fanout.ok


# -- the demo registry must stay clean -----------------------------------------


def test_demo_registry_is_clean():
    registry = demo_registry()
    for name in registry.composition_names:
        report = analyze_composition(registry.composition(name), registry)
        assert report.ok, (name, [str(d) for d in report.diagnostics])


# -- cost summaries ------------------------------------------------------------


def test_cost_summary_chain_numbers(registry, corpus_reports):
    summary = corpus_reports["cost_deadline_chain"].summary
    assert isinstance(summary, CompositionCostSummary)
    assert summary.composition == "cost_deadline_chain"
    assert summary.node_count == 3
    assert summary.critical_path_depth == 3
    assert summary.critical_path_seconds == pytest.approx(0.3)
    assert summary.total_compute_seconds == pytest.approx(0.3)
    assert summary.max_parallel_width == 1
    assert summary.statically_bounded
    assert summary.deadline_seconds == pytest.approx(0.05)
    assert summary.deadline_feasible is False
    assert summary.functions == ("df_slow",)


def test_cost_summary_wide_fanout(corpus_reports):
    summary = corpus_reports["race_fanout_each"].summary
    assert summary.max_parallel_width == 3  # each over 3 constant items
    assert summary.deadline_seconds is None
    assert summary.deadline_feasible is None


def test_memory_capacity_rule_is_gone(registry):
    # COST002 compared the peak estimate with a capacity only a caller
    # could supply, and no caller did.
    with pytest.raises(TypeError):
        analyze_composition(
            registry.composition("race_fanout_each"), registry, memory_capacity=1
        )


def test_cost_summary_unbounded(corpus_reports):
    summary = corpus_reports["cost_unbounded_fanout"].summary
    assert not summary.statically_bounded


def test_cost_summary_entry_point(registry):
    summary = cost_summary(registry.composition("cost_deadline_chain"), registry)
    assert summary.critical_path_seconds == pytest.approx(0.3)


# -- CON002 vs CMP005: alias resolution must not hide or double-report --------


def test_direct_never_written_stays_cmp005(registry):
    # df_half_writer declares out(real, phantom) but provably writes
    # only "real"; a *direct* consumer of phantom is CMP005, and the
    # nesting-alias rule CON002 must not duplicate it.
    source = """
    composition direct_phantom {
        compute work uses df_half_writer in(src) out(real, phantom);
        compute sink uses df_collect in(phantom) out(result);
        input start -> work.src;
        work.phantom -> sink.phantom [all];
        output sink.result -> result;
    }
    """
    composition = parse_composition(source, registry.compositions)
    report = analyze_composition(composition, registry)
    assert "CMP005" in _codes(report)
    assert "CON002" not in _codes(report)


def test_nested_alias_never_written_is_con002(registry, corpus_reports):
    # The same defect routed through a nested composition's output
    # binding: the producer is only reachable through the alias, so
    # the finding is CON002 and not CMP005.
    report = corpus_reports["con_aliased"]
    assert "CON002" in _codes(report)
    assert "CMP005" not in _codes(report)
    assert registry.composition("inner_misbound") is not None


# -- deadline DSL --------------------------------------------------------------


def test_deadline_parses_to_seconds(registry):
    composition = parse_composition(
        """
        composition dl {
            deadline 500ms;
            compute work uses df_copy in(src) out(dst);
            input start -> work.src;
            output work.dst -> result;
        }
        """,
        registry.compositions,
    )
    assert composition.deadline_seconds == pytest.approx(0.5)


@pytest.mark.parametrize(
    "literal,seconds",
    [("250us", 0.00025), ("50ms", 0.05), ("2s", 2.0), ("1.5s", 1.5)],
)
def test_deadline_units(literal, seconds, registry):
    source = (
        "composition dl { deadline %s; "
        "compute work uses df_copy in(src) out(dst); "
        "input start -> work.src; output work.dst -> result; }" % literal
    )
    composition = parse_composition(source, registry.compositions)
    assert composition.deadline_seconds == pytest.approx(seconds)


def test_deadline_round_trips_through_printer(registry):
    source = (
        "composition dl { deadline 500ms; "
        "compute work uses df_copy in(src) out(dst); "
        "input start -> work.src; output work.dst -> result; }"
    )
    composition = parse_composition(source, registry.compositions)
    printed = composition_to_dsl(composition)
    assert "deadline" in printed
    reparsed = parse_composition(printed, registry.compositions)
    assert reparsed.deadline_seconds == pytest.approx(0.5)


def test_duplicate_deadline_rejected(registry):
    source = (
        "composition dl { deadline 1s; deadline 2s; "
        "compute work uses df_copy in(src) out(dst); "
        "input start -> work.src; output work.dst -> result; }"
    )
    with pytest.raises(DslError):
        parse_composition(source, registry.compositions)


def test_bad_deadline_literal_rejected(registry):
    source = (
        "composition dl { deadline soon; "
        "compute work uses df_copy in(src) out(dst); "
        "input start -> work.src; output work.dst -> result; }"
    )
    with pytest.raises(DslError):
        parse_composition(source, registry.compositions)


def test_negative_deadline_rejected(registry):
    source = (
        "composition dl { "
        "compute work uses df_copy in(src) out(dst); "
        "input start -> work.src; output work.dst -> result; }"
    )
    template = parse_composition(source, registry.compositions)
    with pytest.raises(CompositionError):
        Composition(
            "bad",
            template.nodes,
            template.edges,
            template.inputs,
            template.outputs,
            deadline_seconds=-1.0,
        )


def test_compositions_without_deadline_unchanged(registry):
    composition = registry.composition("race_ww_parallel")
    assert composition.deadline_seconds is None
    summary = cost_summary(composition, registry)
    assert summary.deadline_seconds is None
    assert summary.deadline_feasible is None
