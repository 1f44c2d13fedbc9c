"""Tests for all/each/key instance expansion and output merging."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.composition import Distribution
from repro.data import DataItem, DataSet, EnvelopeItem, parse_sets_lazy, serialize_sets
from repro.dispatcher import expand_instances, merge_instance_outputs
from repro.errors import InvocationError

ALL = Distribution.ALL
EACH = Distribution.EACH
KEY = Distribution.KEY


def items(*specs):
    return [DataItem(ident, data, key=key) for ident, data, key in specs]


def test_all_single_instance():
    data = DataSet("src", items(("a", b"1", None), ("b", b"2", None)))
    plans = expand_instances("n", [("in", ALL, data)])
    assert len(plans) == 1
    assert plans[0].input_sets[0].ident == "in"
    assert len(plans[0].input_sets[0]) == 2


def test_no_deliveries_single_empty_instance():
    plans = expand_instances("n", [])
    assert len(plans) == 1
    assert plans[0].input_sets == []


def test_each_one_instance_per_item():
    data = DataSet("src", items(("a", b"1", None), ("b", b"2", None), ("c", b"3", None)))
    plans = expand_instances("n", [("in", EACH, data)])
    assert len(plans) == 3
    assert [p.input_sets[0][0].data for p in plans] == [b"1", b"2", b"3"]
    assert all(len(p.input_sets[0]) == 1 for p in plans)


def test_each_plus_broadcast():
    each_data = DataSet("s1", items(("a", b"1", None), ("b", b"2", None)))
    all_data = DataSet("s2", items(("cfg", b"shared", None)))
    plans = expand_instances("n", [("part", EACH, each_data), ("config", ALL, all_data)])
    assert len(plans) == 2
    for plan in plans:
        names = {s.ident for s in plan.input_sets}
        assert names == {"part", "config"}
        config = [s for s in plan.input_sets if s.ident == "config"][0]
        assert config.item("cfg").data == b"shared"


def test_two_each_edges_zipped():
    left = DataSet("l", items(("a", b"1", None), ("b", b"2", None)))
    right = DataSet("r", items(("x", b"9", None), ("y", b"8", None)))
    plans = expand_instances("n", [("left", EACH, left), ("right", EACH, right)])
    assert len(plans) == 2
    assert plans[0].input_sets[0][0].data == b"1"
    assert plans[0].input_sets[1][0].data == b"9"
    assert plans[1].input_sets[0][0].data == b"2"
    assert plans[1].input_sets[1][0].data == b"8"


def test_each_count_mismatch_rejected():
    left = DataSet("l", items(("a", b"1", None)))
    right = DataSet("r", items(("x", b"9", None), ("y", b"8", None)))
    with pytest.raises(InvocationError, match="mismatched item counts"):
        expand_instances("n", [("left", EACH, left), ("right", EACH, right)])


def test_key_groups_items():
    data = DataSet("src", items(
        ("a", b"1", "k1"), ("b", b"2", "k2"), ("c", b"3", "k1"),
    ))
    plans = expand_instances("n", [("in", KEY, data)])
    assert len(plans) == 2
    assert plans[0].key == "k1"
    assert [i.ident for i in plans[0].input_sets[0]] == ["a", "c"]
    assert plans[1].key == "k2"
    assert [i.ident for i in plans[1].input_sets[0]] == ["b"]


def test_key_none_key_is_its_own_group():
    data = DataSet("src", items(("a", b"1", "k"), ("b", b"2", None)))
    plans = expand_instances("n", [("in", KEY, data)])
    assert len(plans) == 2


def test_two_key_edges_matched_by_key():
    left = DataSet("l", items(("a", b"1", "k1"), ("b", b"2", "k2")))
    right = DataSet("r", items(("x", b"9", "k2"), ("y", b"8", "k1")))
    plans = expand_instances("n", [("left", KEY, left), ("right", KEY, right)])
    assert len(plans) == 2
    first = plans[0]
    assert first.key == "k1"
    assert first.input_sets[0].item("a").data == b"1"
    assert first.input_sets[1].item("y").data == b"8"


def test_key_mismatch_rejected():
    left = DataSet("l", items(("a", b"1", "k1")))
    right = DataSet("r", items(("x", b"9", "other")))
    with pytest.raises(InvocationError, match="mismatched key sets"):
        expand_instances("n", [("left", KEY, left), ("right", KEY, right)])


def test_each_key_mix_rejected():
    left = DataSet("l", items(("a", b"1", None)))
    right = DataSet("r", items(("x", b"9", "k")))
    with pytest.raises(InvocationError, match="mixing"):
        expand_instances("n", [("left", EACH, left), ("right", KEY, right)])


def test_merge_outputs_simple_union():
    merged = merge_instance_outputs(
        ["out"],
        [
            [DataSet("out", items(("a", b"1", None)))],
            [DataSet("out", items(("b", b"2", None)))],
        ],
    )
    assert {i.ident for i in merged["out"]} == {"a", "b"}


def test_merge_outputs_collision_renamed():
    merged = merge_instance_outputs(
        ["out"],
        [
            [DataSet("out", items(("result", b"1", None)))],
            [DataSet("out", items(("result", b"2", None)))],
        ],
    )
    idents = sorted(i.ident for i in merged["out"])
    assert idents == ["i1.result", "result"]
    assert merged["out"].item("i1.result").data == b"2"


def test_merge_collision_of_response_sets_materialises_nothing():
    # Two comm instances each answer request "r": the second is renamed
    # without reading its payload, for envelope items and wire views alike.
    body = bytes(range(256)) * 8
    envelopes = [
        EnvelopeItem("r", {"status": 200, "reason": "OK"}, "body_hex", body, key=f"k{n}")
        for n in range(2)
    ]
    (wire_a,) = parse_sets_lazy(serialize_sets([DataSet("response", items(("r", body, "a")))]))
    (wire_b,) = parse_sets_lazy(serialize_sets([DataSet("response", items(("r", body, "b")))]))
    for first, second in [
        (DataSet("response", [envelopes[0]]), DataSet("response", [envelopes[1]])),
        (wire_a, wire_b),
    ]:
        (second_item,) = list(second)
        merged = merge_instance_outputs(["response"], [[first], [second]])["response"]
        assert [i.ident for i in merged] == ["r", "i1.r"]
        renamed = merged.item("i1.r")
        assert type(renamed) is type(second_item) and renamed is not second_item
        assert (renamed.key, renamed.size) == (second_item.key, second_item.size)
        assert merged.size == first.size + second.size
        assert second_item.ident == "r"  # the source item keeps its name
        assert all(i._data is None for i in (*merged, second_item))  # nothing built or copied
        assert renamed.data == second_item.data


def test_merge_outputs_many_same_named_items_linear():
    # Every instance emits the same item ident: the merge must stay
    # linear in the total item count (the collision check is an O(1)
    # index lookup, not a scan) and disambiguate all-but-one.
    instances = 200
    merged = merge_instance_outputs(
        ["out"],
        [
            [DataSet("out", items(("result", bytes([index % 256]), None)))]
            for index in range(instances)
        ],
    )
    assert len(merged["out"]) == instances
    assert merged["out"].item("result").data == b"\x00"
    for index in range(1, instances):
        assert merged["out"].item(f"i{index}.result").data == bytes([index % 256])


def test_merge_outputs_single_instance_reuses_sets():
    produced = DataSet("out", items(("a", b"1", None)))
    merged = merge_instance_outputs(["out", "empty"], [[produced]])
    assert merged["out"] is produced
    assert len(merged["empty"]) == 0


def test_merge_preserves_keys_and_ignores_undeclared_sets():
    merged = merge_instance_outputs(
        ["declared"],
        [[DataSet("declared", items(("a", b"1", "k"))), DataSet("stray", items(("s", b"9", None)))]],
    )
    assert list(merged) == ["declared"]
    assert merged["declared"].item("a").key == "k"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=8), min_size=1, max_size=12))
def test_property_each_preserves_all_items(payloads):
    data = DataSet("s", [DataItem(f"i{n}", p) for n, p in enumerate(payloads)])
    plans = expand_instances("n", [("in", EACH, data)])
    assert len(plans) == len(payloads)
    recovered = [plan.input_sets[0][0].data for plan in plans]
    assert recovered == payloads


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["k1", "k2", "k3"]), min_size=1, max_size=12))
def test_property_key_partition_is_complete_and_disjoint(keys):
    data = DataSet("s", [DataItem(f"i{n}", b"x", key=k) for n, k in enumerate(keys)])
    plans = expand_instances("n", [("in", KEY, data)])
    seen = [item.ident for plan in plans for item in plan.input_sets[0]]
    assert sorted(seen) == sorted(f"i{n}" for n in range(len(keys)))
    assert len(plans) == len(set(keys))
    for plan in plans:
        assert all(item.key == plan.key for item in plan.input_sets[0])
