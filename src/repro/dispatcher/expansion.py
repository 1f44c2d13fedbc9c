"""Instance expansion — turning edge data into function instances.

A node's incoming edges carry distribution keywords (§4.1): ``all``
sends every item of the set to a single downstream instance, ``each``
creates one instance per item, and ``key`` creates one instance per
distinct item key.  This module computes, from the delivered input
sets and their edge metadata, how many instances of a node run and
which input sets each instance receives.

Rules when a node has several incoming edges (the paper leaves this
implicit; we document our choice):

* any number of ``all`` edges — their sets are broadcast to every
  instance;
* several ``each`` edges must deliver the same item count and are
  zipped by position;
* several ``key`` edges are matched by key (each must provide every
  key that appears);
* mixing ``each`` and ``key`` on one node is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..composition.graph import Distribution
from ..data.items import DataSet, group_items_by_key, renamed_item
from ..errors import InvocationError

__all__ = ["InstancePlan", "expand_instances"]


@dataclass(frozen=True, slots=True)
class InstancePlan:
    """Input sets for one instance of a node."""

    index: int
    input_sets: list[DataSet]
    key: "str | None" = None   # the group key for KEY-distributed instances


def expand_instances(
    node_name: str,
    deliveries: "list[tuple[str, Distribution, DataSet]]",
) -> list[InstancePlan]:
    """Compute the instances of a node from its delivered inputs.

    ``deliveries`` contains one ``(input_set_name, distribution, data)``
    triple per incoming edge / composition input (composition inputs
    use ``all``).
    """
    for _name, dist, _data in deliveries:
        if dist is not Distribution.ALL:
            break
    else:
        # All edges broadcast (the overwhelmingly common case): one
        # instance receiving every delivered set under its input name.
        return [
            InstancePlan(
                index=0,
                input_sets=[_renamed(data, name) for name, _dist, data in deliveries],
            )
        ]

    broadcast = [(name, data) for name, dist, data in deliveries if dist is Distribution.ALL]
    each = [(name, data) for name, dist, data in deliveries if dist is Distribution.EACH]
    keyed = [(name, data) for name, dist, data in deliveries if dist is Distribution.KEY]

    if each and keyed:
        raise InvocationError(
            f"node {node_name!r}: mixing 'each' and 'key' distributions is not supported"
        )

    if not each and not keyed:
        input_sets = [_renamed(data, name) for name, data in broadcast]
        return [InstancePlan(index=0, input_sets=input_sets)]

    if each:
        counts = {len(data) for _name, data in each}
        if len(counts) != 1:
            raise InvocationError(
                f"node {node_name!r}: 'each' edges deliver mismatched item "
                f"counts {sorted(counts)}"
            )
        (count,) = counts
        plans = []
        for index in range(count):
            input_sets = [
                DataSet(name, [data[index]]) for name, data in each
            ] + [_renamed(data, name) for name, data in broadcast]
            plans.append(InstancePlan(index=index, input_sets=input_sets))
        return plans

    # KEY distribution: group by key, one instance per distinct key.
    # One pass per delivered set (group_items_by_key) instead of the
    # former rescan of the whole set for every distinct key; lazy sets
    # group without materializing any payload.
    groupings = [(name, group_items_by_key(data)) for name, data in keyed]
    reference_keys = list(groupings[0][1])
    reference_set = set(reference_keys)
    for _name, groups in groupings[1:]:
        if set(groups) != reference_set:
            raise InvocationError(
                f"node {node_name!r}: 'key' edges deliver mismatched key sets"
            )
    plans = []
    for index, key in enumerate(reference_keys):
        input_sets = [
            DataSet(name, groups[key]) for name, groups in groupings
        ] + [_renamed(data, name) for name, data in broadcast]
        plans.append(InstancePlan(index=index, input_sets=input_sets, key=key))
    return plans


def _renamed(data: DataSet, name: str) -> DataSet:
    """The delivered set under the consumer's input-set name."""
    return DataSet.renamed(data, name)


def merge_instance_outputs(
    output_set_names: "list[str]",
    per_instance_outputs: "list[list[DataSet]]",
) -> "dict[str, DataSet]":
    """Union instance outputs per output set.

    Item-name collisions across instances (each instance writing, say,
    ``result``) are disambiguated with an instance-index prefix so the
    merged set remains well-formed.  Collision checks use the target
    set's ident index, so merging is linear in the total item count.
    """
    if len(per_instance_outputs) == 1:
        # Single instance (the overwhelmingly common case): no
        # cross-instance collisions are possible, so reuse its output
        # sets directly instead of re-adding every item.
        produced = {data_set.ident: data_set for data_set in per_instance_outputs[0]}
        return {
            name: produced.get(name) or DataSet(name) for name in output_set_names
        }

    merged: dict[str, DataSet] = {name: DataSet(name) for name in output_set_names}
    for instance_index, outputs in enumerate(per_instance_outputs):
        for data_set in outputs:
            target = merged.get(data_set.ident)
            if target is None:
                continue
            for item in data_set:
                if item.ident in target:
                    target.add(renamed_item(item, f"i{instance_index}.{item.ident}"))
                else:
                    target.add(item)
    return merged
