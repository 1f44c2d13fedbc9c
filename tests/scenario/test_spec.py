"""ScenarioSpec schema: round-trips, validation, overrides."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.spec import (
    ScenarioSpec,
    SpecError,
    bundled_specs,
    load_spec,
    parse_toml,
    scenario_from_dict,
    scenario_from_toml,
)

_identifiers = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True)
_printable = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=24
)
_rates = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False,
                   allow_infinity=False)
_durations = st.floats(min_value=1e-2, max_value=100.0, allow_nan=False,
                       allow_infinity=False)


@st.composite
def _spec_dicts(draw):
    """Valid spec payloads across both trace kinds."""
    kind = draw(st.sampled_from(["synthetic", "streamed"]))
    trace = {"kind": kind, "duration_seconds": draw(_durations),
             "seed_offset": draw(st.integers(0, 100))}
    faults = {}
    if kind == "synthetic":
        if draw(st.booleans()):
            trace["rps"] = draw(_rates)
        else:
            trace["rps_per_worker"] = draw(_rates)
        trace["apps"] = draw(st.integers(1, 8))
        trace["zipf_skew"] = draw(st.floats(0.0, 3.0))
        trace["reseed_per_fleet"] = draw(st.booleans())
        faults = {
            "transient_rate": draw(st.floats(0.0, 0.5)),
            "max_retries": draw(st.integers(0, 5)),
            "mttf_seconds": draw(st.one_of(st.just(0.0), _durations)),
            "mttr_seconds": draw(_durations),
            "limp_severity": draw(st.floats(1.0, 16.0)),
        }
        if draw(st.booleans()):
            faults["deadline_seconds"] = draw(_durations)
    else:
        trace["apps"] = 1
        trace["scale"] = draw(st.floats(0.1, 100.0))
        trace["functions_base"] = draw(st.integers(1, 500))
        trace["rps_base"] = draw(_rates)
        trace["window_seconds"] = draw(st.floats(0.05, 5.0))
    return {
        "name": draw(_identifiers),
        "description": draw(_printable),
        "seed": draw(st.integers(0, 2**31 - 1)),
        "trace": trace,
        "workload": {
            "name": draw(_identifiers),
            "compute_seconds": draw(st.floats(1e-4, 1.0)),
            "binary_mib": draw(st.floats(0.0, 256.0)),
            "payload": draw(_printable),
        },
        "fleet": {
            "workers": draw(st.integers(1, 64)),
            "cores": draw(st.integers(1, 64)),
            "backend": draw(_identifiers),
            "machine": draw(_identifiers),
            "platform": draw(st.sampled_from(["dandelion", "faas"])),
        },
        "faults": faults,
        "sched": {
            "routing": draw(_identifiers),
            "latency_health": draw(st.booleans()),
            "hedge": draw(st.booleans()),
            "hedge_percentile": draw(st.floats(1.0, 99.0)),
            "hedge_budget_fraction": draw(st.floats(0.0, 1.0)),
        },
    }


@settings(max_examples=80, deadline=None)
@given(_spec_dicts())
def test_property_parse_serialize_parse_is_identity(payload):
    spec = scenario_from_dict(payload)
    # Canonical dict round-trip.
    assert scenario_from_dict(spec.to_dict()) == spec
    # TOML round-trip.
    assert scenario_from_toml(spec.to_toml()) == spec
    # The digest is a function of the canonical form alone.
    assert scenario_from_toml(spec.to_toml()).digest() == spec.digest()


def test_defaults_give_a_valid_spec():
    spec = scenario_from_dict({"trace": {"rps": 100.0}})
    assert spec.name == "scenario"
    assert spec.seed == 0
    assert spec.offered_rps() == 100.0


def test_unknown_top_level_key_rejected():
    with pytest.raises(SpecError, match="unknown key 'sedd'"):
        scenario_from_dict({"sedd": 1, "trace": {"rps": 1.0}})


def test_unknown_section_key_rejected():
    with pytest.raises(SpecError, match=r"trace: unknown key\(s\) rsp"):
        scenario_from_dict({"trace": {"rsp": 1.0}})


def test_schema_mismatch_rejected():
    with pytest.raises(SpecError, match="expected 'repro-scenario/v1'"):
        scenario_from_dict({"schema": "repro-scenario/v2"})


def test_type_errors_rejected():
    with pytest.raises(SpecError, match="fleet.workers: expected an integer"):
        scenario_from_dict({"trace": {"rps": 1.0},
                            "fleet": {"workers": 2.5}})
    with pytest.raises(SpecError, match="must be finite"):
        scenario_from_dict({"trace": {"rps": math.inf}})


def test_synthetic_requires_exactly_one_rate():
    with pytest.raises(SpecError, match="exactly one of rps"):
        scenario_from_dict({"trace": {"rps": 1.0, "rps_per_worker": 1.0}})
    with pytest.raises(SpecError, match="exactly one of rps"):
        scenario_from_dict({"trace": {}})


def test_streamed_rejects_fault_injection():
    with pytest.raises(SpecError, match="not supported on the streamed"):
        scenario_from_dict({
            "trace": {"kind": "streamed"},
            "faults": {"mttf_seconds": 10.0},
        })


def test_overrides_apply_and_recheck():
    spec = scenario_from_dict({"trace": {"rps": 10.0}})
    bumped = spec.with_overrides({"fleet.workers": 8, "seed": 3})
    assert bumped.fleet.workers == 8 and bumped.seed == 3
    assert spec.fleet.workers == 4  # frozen original untouched
    with pytest.raises(SpecError, match="unknown field 'wrokers'"):
        spec.with_overrides({"fleet.wrokers": 8})
    with pytest.raises(SpecError, match="unknown section"):
        spec.with_overrides({"flete.workers": 8})
    with pytest.raises(SpecError, match="expected an integer"):
        spec.with_overrides({"fleet.workers": "many"})
    with pytest.raises(SpecError, match="must be > 0"):
        spec.with_overrides({"trace.duration_seconds": -1.0})


def test_trace_and_fault_seed_conventions():
    spec = scenario_from_dict({"seed": 5, "trace": {"rps": 1.0}})
    assert spec.trace_seed() == 5 + 17
    assert spec.fault_seed() == 5 + 29
    reseeded = spec.with_overrides({"trace.reseed_per_fleet": True,
                                    "fleet.workers": 16})
    assert reseeded.trace_seed() == 5 + 16


def test_canonical_dict_omits_unset_deadline():
    spec = scenario_from_dict({"trace": {"rps": 1.0}})
    assert "deadline_seconds" not in spec.to_dict()["faults"]
    with_deadline = spec.with_overrides({"faults.deadline_seconds": 0.5})
    assert with_deadline.to_dict()["faults"]["deadline_seconds"] == 0.5


def test_bundled_specs_all_load():
    names = bundled_specs()
    assert {"sec61", "sec62", "sec63", "fig10_full", "mini"} <= set(names)
    for name in names:
        spec = load_spec(name)
        assert isinstance(spec, ScenarioSpec)
        assert spec.name == name


def test_load_spec_unknown_ref():
    with pytest.raises(SpecError, match="no bundled scenario"):
        load_spec("no_such_scenario")


def test_parse_toml_grammar_and_malformed_input():
    parsed = parse_toml(
        '# header comment\n'
        'name = "a\\"b\\\\c"  # trailing comment\n'
        'seed = 12\n'
        '\n'
        '[trace]\n'
        'rps = 1.5\n'
        'reseed_per_fleet = false\n'
    )
    assert parsed == {
        "name": 'a"b\\c', "seed": 12,
        "trace": {"rps": 1.5, "reseed_per_fleet": False},
    }
    for malformed in (
        "a = 1\na = 2\n",      # duplicate key
        "[trace\n",            # bad table header
        'name = "open\n',      # unterminated string
        "x = nope\n",          # bad value
    ):
        with pytest.raises(SpecError, match="TOML parse error"):
            parse_toml(malformed)
