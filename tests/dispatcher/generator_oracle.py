"""Reference composition runner for ``test_runner_equivalence``.

The generator formulation of the dispatcher: one simulation `Process`
per vertex, which waits on an `AllOf` over one delivery `Event` per
input set, marks "consumed" events for its producers, starts its
instances and waits for them through one more event, then succeeds one
delivery or output event per consumer.  A producer's contexts are freed
by an `AllOf` over its consumers' consumed and output events.

It left the product when the counter-driven `_CompositionRun` became
the only runner; it stays here, unchanged apart from taking the node
steps from `Dispatcher._compile` and being bound in by `install`, so the
new runner is checked live against it on random chains and DAGs.
Everything below the composition level (`_start_instance`, `_TaskRun`,
the context release) is the product's.
"""

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.composition.graph import Composition, Distribution
from repro.data.items import DataSet
from repro.dispatcher.dispatcher import Dispatcher, NodeFailure, _node_failed
from repro.dispatcher.expansion import expand_instances, merge_instance_outputs
from repro.errors import InvocationError


def install(monkeypatch) -> None:
    """Run every composition (nested ones too) on the generator runner."""
    monkeypatch.setattr(Dispatcher, "_run_composition", _run_composition)


def _run_composition(self, composition: Composition, inputs: dict, invocation_id: int, on_done) -> None:
    expected = {binding.external for binding in composition.inputs}
    provided = set(inputs)
    if provided != expected:
        on_done(
            InvocationError(
                f"composition {composition.name!r} expects inputs {sorted(expected)}, "
                f"got {sorted(provided)}"
            )
        )
        return

    steps = {step.node.name: step for step in self._compile(composition).steps}

    # One delivery event per (node, input set); values are
    # (Distribution, DataSet-or-NodeFailure).
    deliveries: dict[tuple[str, str], object] = {
        (node.name, set_name): self.env.event()
        for node in composition.nodes.values()
        for set_name in node.input_sets
    }
    # "Consumed" events let producers free contexts once every
    # data-dependent function has picked up its inputs.
    consumed: dict[tuple[str, str], object] = {
        key: self.env.event() for key in deliveries
    }
    output_events: dict[str, object] = {
        binding.external: self.env.event() for binding in composition.outputs
    }

    state = _CompositionRun(
        composition=composition,
        deliveries=deliveries,
        consumed=consumed,
        output_events=output_events,
        invocation_id=invocation_id,
        steps=steps,
    )

    for node in composition.nodes.values():
        self.env.process(_run_node(self, state, node))

    # Feed the composition-level inputs.
    for binding in composition.inputs:
        data = inputs[binding.external]
        deliveries[(binding.node, binding.node_set)].succeed(
            (Distribution.ALL, DataSet.renamed(data, binding.node_set))
        )

    self.env.all_of(list(output_events.values())).callbacks.append(
        partial(_gathered, composition, output_events, on_done)
    )


def _gathered(composition, output_events, on_done, _event) -> None:
    outputs: dict[str, DataSet] = {}
    failure: Optional[NodeFailure] = None
    for binding in composition.outputs:
        value = output_events[binding.external].value
        if isinstance(value, NodeFailure):
            failure = value
        else:
            outputs[binding.external] = DataSet.renamed(value, binding.external)
    on_done(outputs if failure is None else _node_failed(failure))


def _run_node(self, state: "_CompositionRun", node):
    """Process executing one node of a composition run."""
    delivery_events = [
        state.deliveries[(node.name, set_name)] for set_name in node.input_sets
    ]
    yield self.env.all_of(delivery_events)
    delivered = [
        (set_name, *state.deliveries[(node.name, set_name)].value)
        for set_name in node.input_sets
    ]

    upstream_failure = next(
        (data for _n, _d, data in delivered if isinstance(data, NodeFailure)), None
    )
    if upstream_failure is not None:
        _mark_consumed(state, node)
        _propagate(state, node, failure=upstream_failure)
        return

    try:
        plans = expand_instances(node.name, delivered)
    except InvocationError as exc:
        _mark_consumed(state, node)
        _propagate(state, node, failure=NodeFailure(node.name, exc))
        return

    # Instances copy their inputs in as they start, in this heap
    # step; upstream producers free theirs a step later.
    _mark_consumed(state, node)
    gather = _Gather(self, state, node, len(plans))
    step = state.steps[node.name]
    for plan in plans:
        self._start_instance(step, plan, state.invocation_id, gather.instance_done)
    per_instance = yield gather.done
    failure = next(
        (value for value in per_instance if isinstance(value, NodeFailure)), None
    )
    if failure is not None:
        _propagate(state, node, failure=failure)
        return
    merged = merge_instance_outputs(list(node.output_sets), per_instance)
    _propagate(state, node, outputs=merged)


def _mark_consumed(state: "_CompositionRun", node) -> None:
    for set_name in node.input_sets:
        event = state.consumed[(node.name, set_name)]
        if not event.triggered:
            event.succeed()


def _propagate(state, node, outputs=None, failure=None) -> None:
    """Deliver a node's outputs (or failure) downstream and to bindings."""
    composition = state.composition
    for edge in composition.outgoing_edges(node.name):
        payload = failure if failure is not None else DataSet.renamed(
            outputs[edge.source_set], edge.target_set
        )
        state.deliveries[(edge.target, edge.target_set)].succeed(
            (edge.distribution, payload)
        )
    for binding in composition.outputs:
        if binding.node == node.name:
            value = failure if failure is not None else outputs[binding.node_set]
            state.output_events[binding.external].succeed(value)


def _free_after_consumption(dispatcher, state, node, context) -> None:
    """Arrange for ``context`` to be freed once consumers are done."""
    composition = state.composition
    waits = [
        state.consumed[(edge.target, edge.target_set)]
        for edge in composition.outgoing_edges(node.name)
    ]
    for binding in composition.outputs:
        if binding.node == node.name:
            waits.append(state.output_events[binding.external])
    if not waits:
        dispatcher._release_context(context)
        return
    dispatcher.env.all_of(waits).callbacks.append(
        lambda _event: dispatcher._release_context(context)
    )


@dataclass
class _CompositionRun:
    """Shared state of one composition run."""

    composition: Composition
    deliveries: dict
    consumed: dict
    output_events: dict
    invocation_id: int
    steps: dict


class _Gather:
    """The wait for every instance of one node: ``done`` fires with
    their values in plan order."""

    __slots__ = ("dispatcher", "state", "node", "values", "remaining", "done")

    def __init__(self, dispatcher: Dispatcher, state: _CompositionRun, node, count: int):
        self.dispatcher = dispatcher
        self.state = state
        self.node = node
        self.values = [None] * count
        self.remaining = count
        self.done = dispatcher.env.event()
        if not count:
            # An empty ``each``/``key`` delivery: nothing to wait for.
            self.done.succeed(self.values)

    def instance_done(self, index: int, context, value) -> None:
        if context is not None:
            _free_after_consumption(self.dispatcher, self.state, self.node, context)
        self.values[index] = value
        self.remaining -= 1
        if not self.remaining:
            self.done.succeed(self.values)
