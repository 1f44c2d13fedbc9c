"""The dispatcher — orchestration of composition invocations (§5, §6.1).

"The dispatcher orchestrates composition invocations using separate
green threads.  It queues functions as their inputs become available
and coordinates data movement."  Each invocation runs as a tree of
simulation processes: one per node, plus one per function instance.
The dispatcher:

* tracks input/output dependencies and launches a node once every one
  of its input sets has been delivered;
* expands ``each``/``key`` edges into parallel instances
  (:mod:`repro.dispatcher.expansion`);
* prepares an isolated memory context per instance, copies inputs in,
  and enqueues a task on the compute or communication queue;
* on completion associates outputs with waiting consumers and frees a
  producer's contexts "when all data-dependent functions have consumed
  its output";
* retries transient engine failures (pure compute functions are
  idempotent, §6.1) and surfaces deterministic user failures to the
  client.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ..composition.graph import (
    Composition,
    CompositionNode,
    Distribution,
)
from ..composition.registry import Registry
from ..data.context import ContextError, MemoryContext
from ..data.items import DataSet
from ..engines.group import EngineGroup
from ..engines.task import COMPUTE, Task, TaskOutcome
from ..errors import DeadlineExceeded, InvocationError
from ..sim.core import Environment
from .expansion import expand_instances, merge_instance_outputs
from .memory import MemoryTracker

__all__ = ["Dispatcher", "InvocationResult", "NodeFailure"]

# Virtual reservation for communication-function contexts (responses
# can be large; reservation is virtual, commitment follows actual data).
_COMM_CONTEXT_CAPACITY = 1 << 30

# Retry schedule for transient engine failures (§6.1): exponential
# backoff starting at 1 ms, doubling per attempt, with up to 10%
# seeded jitter so synchronized failures don't re-collide.  Retrying
# through ``env.timeout`` (instead of re-submitting in the same
# simulated instant) gives a crashed engine or a congested queue
# virtual time to recover.
_RETRY_BACKOFF_BASE_SECONDS = 1e-3
_RETRY_BACKOFF_FACTOR = 2.0
_RETRY_JITTER_FRACTION = 0.1


@dataclass(frozen=True)
class NodeFailure:
    """Failure marker propagated through deliveries instead of data."""

    node_name: str
    error: BaseException


class _NodeStep:
    """Static per-node execution facts, resolved once per composition.

    Node structure never changes after registration, so the dispatcher
    compiles each node's hot-path constants — resolved binary, context
    capacity, set-name order, outgoing edges, target engine group —
    instead of re-deriving them on every invocation.
    """

    __slots__ = (
        "node",
        "kind",
        "binary",
        "capacity",
        "group",
        "input_names",
        "output_names",
        "protocol",
        "bound",
        "edges_out",
    )

    def __init__(self, dispatcher: "Dispatcher", composition, node, bound: bool):
        self.node = node
        self.kind = node.kind
        if node.kind == COMPUTE:
            self.binary = dispatcher.registry.function(node.function)
            self.capacity = self.binary.memory_limit
            self.group = dispatcher.compute_group
        else:
            self.binary = None
            self.capacity = _COMM_CONTEXT_CAPACITY
            self.group = dispatcher.comm_group
        self.input_names = list(node.input_sets)
        self.output_names = list(node.output_sets)
        self.protocol = getattr(node, "protocol", "http")
        self.bound = bound
        self.edges_out = [
            (edge.target, edge.target_set, edge.distribution, edge.source_set)
            for edge in composition.outgoing_edges(node.name)
        ]


@dataclass
class InvocationResult:
    """Outputs (or failure) of one composition invocation."""

    invocation_id: int
    outputs: dict[str, DataSet] = field(default_factory=dict)
    error: Optional[BaseException] = None
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def latency(self) -> float:
        return self.finished_at - self.started_at

    def output(self, name: str) -> DataSet:
        if self.error is not None:
            raise InvocationError(f"invocation failed: {self.error}") from self.error
        return self.outputs[name]


class Dispatcher:
    """Orchestrates invocations over the worker's engine groups."""

    __slots__ = (
        "env",
        "registry",
        "compute_group",
        "comm_group",
        "memory",
        "data_passing",
        "cache_mode",
        "cache_rng",
        "cold_load_fraction",
        "max_retries",
        "default_timeout",
        "retry_rng",
        "retry_backoff_base",
        "retries_performed",
        "deadline_expirations",
        "static_admission",
        "admission_rejections",
        "_cost_summaries",
        "_warm_binaries",
        "_serial_cache",
        "_invocation_ids",
        "invocations_started",
        "invocations_completed",
        "invocations_failed",
    )

    def __init__(
        self,
        env: Environment,
        registry: Registry,
        compute_group: EngineGroup,
        comm_group: EngineGroup,
        memory: Optional[MemoryTracker] = None,
        cache_mode: str = "warm",
        cache_rng=None,
        cold_load_fraction: float = 0.0,
        max_retries: int = 2,
        default_timeout: Optional[float] = None,
        data_passing: str = "copy",
        retry_rng=None,
        retry_backoff_base: float = _RETRY_BACKOFF_BASE_SECONDS,
        static_admission: bool = False,
    ):
        self.env = env
        self.registry = registry
        self.compute_group = compute_group
        self.comm_group = comm_group
        self.memory = memory or MemoryTracker(env)
        if cache_mode not in ("warm", "always", "never", "fraction"):
            raise ValueError(f"unknown cache_mode {cache_mode!r}")
        if data_passing not in ("copy", "remap"):
            raise ValueError(f"unknown data_passing mode {data_passing!r}")
        # §6.1: "To move data between contexts, Dandelion currently
        # copies data. ... Different backends could avoid the copy by
        # remapping memory".  "remap" models that variant: inputs are
        # not duplicated into the consumer's context (no extra committed
        # pages, only the fixed page-table cost at transfer time).
        self.data_passing = data_passing
        self.cache_mode = cache_mode
        self.cache_rng = cache_rng
        self.cold_load_fraction = cold_load_fraction
        self.max_retries = max_retries
        self.default_timeout = default_timeout
        self.retry_rng = retry_rng
        self.retry_backoff_base = retry_backoff_base
        self.retries_performed = 0
        self.deadline_expirations = 0
        # Static admission (repro.analysis.compositions): when enabled,
        # invocations of a composition whose declared deadline is
        # statically unreachable are rejected before any scheduling or
        # memory-context work happens — the cost summary is a lower
        # bound (unbounded parallelism), so a failing path can *never*
        # meet the deadline.
        self.static_admission = static_admission
        self.admission_rejections = 0
        self._cost_summaries: dict[int, object] = {}
        self._warm_binaries: set[str] = set()
        # Composition id -> (composition, serial node order or None);
        # see _serial_nodes.
        self._serial_cache: dict[int, tuple] = {}
        self._invocation_ids = itertools.count()
        self.invocations_started = 0
        self.invocations_completed = 0
        self.invocations_failed = 0

    # -- public API ---------------------------------------------------------

    @property
    def warm_binaries(self):
        """Names of binaries currently in this node's in-RAM cache.

        A live, read-only view (not a copy — routing policies probe it
        on every decision): locality signal for
        :class:`~repro.sched.routing.LocalityAware`.  Membership-test
        only; callers must not mutate it or rely on iteration order.
        """
        return self._warm_binaries

    def is_binary_warm(self, name: str) -> bool:
        """O(1) membership probe into the in-RAM binary cache."""
        return name in self._warm_binaries

    def cost_summary(self, composition_name: str):
        """Static cost envelope of a registered composition (cached).

        Computed lazily by :func:`repro.analysis.compositions.cost_summary`
        on first request and memoized per composition object.
        """
        composition = self.registry.composition(composition_name)
        key = id(composition)
        summary = self._cost_summaries.get(key)
        if summary is None:
            from ..analysis.compositions import cost_summary as analyze_cost

            summary = analyze_cost(composition, self.registry)
            self._cost_summaries[key] = summary
        return summary

    def invoke(self, composition_name: str, inputs: dict[str, DataSet]):
        """Start an invocation; returns a process yielding InvocationResult."""
        composition = self.registry.composition(composition_name)
        return self.env.process(self._invoke(composition, inputs))

    def _invoke(self, composition: Composition, inputs: dict[str, DataSet]):
        invocation_id = next(self._invocation_ids)
        self.invocations_started += 1
        result = InvocationResult(invocation_id=invocation_id, started_at=self.env.now)
        if self.static_admission and composition.deadline_seconds is not None:
            summary = self.cost_summary(composition.name)
            if summary.deadline_feasible is False:
                self.admission_rejections += 1
                self.invocations_failed += 1
                result.error = InvocationError(
                    f"composition {composition.name!r} statically rejected: "
                    f"critical path {summary.critical_path_seconds:.6g}s "
                    f"cannot meet the {composition.deadline_seconds}s deadline"
                )
                result.finished_at = self.env.now
                return result
        try:
            outputs = yield from self._run_composition(composition, inputs, invocation_id)
        except InvocationError as exc:
            result.error = exc
            result.finished_at = self.env.now
            self.invocations_failed += 1
            return result
        result.outputs = outputs
        result.finished_at = self.env.now
        self.invocations_completed += 1
        return result

    # -- composition execution ------------------------------------------------

    def _run_composition(self, composition: Composition, inputs: dict[str, DataSet], invocation_id: int):
        """Generator running one composition; returns output-name -> DataSet."""
        expected = {binding.external for binding in composition.inputs}
        provided = set(inputs)
        if provided != expected:
            raise InvocationError(
                f"composition {composition.name!r} expects inputs {sorted(expected)}, "
                f"got {sorted(provided)}"
            )

        chain, steps = self._compile(composition)
        if chain is not None:
            # Chain-shaped composition (every node's sole successor is
            # the next node): the event-driven schedule is provably
            # sequential, so run the nodes inline without the
            # delivery/consumed/output event machinery.
            outputs = yield from self._run_serial(composition, inputs, invocation_id, chain)
            return outputs

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
            self.env.process(self._run_node(state, node))

        # Feed the composition-level inputs.
        for binding in composition.inputs:
            data = inputs[binding.external]
            deliveries[(binding.node, binding.node_set)].succeed(
                (Distribution.ALL, DataSet.renamed(data, binding.node_set))
            )

        gathered = yield self.env.all_of(list(output_events.values()))
        outputs: dict[str, DataSet] = {}
        failure: Optional[NodeFailure] = None
        for binding in composition.outputs:
            value = output_events[binding.external].value
            if isinstance(value, NodeFailure):
                failure = value
            else:
                outputs[binding.external] = DataSet.renamed(value, binding.external)
        if failure is not None:
            raise InvocationError(
                f"node {failure.node_name!r} failed: {failure.error}"
            )
        return outputs

    # -- serial (chain) execution ---------------------------------------------

    def _compile(self, composition: Composition):
        """Per-composition execution plan: ``(chain_steps, steps_by_name)``.

        Every node gets a :class:`_NodeStep` with its static execution
        facts resolved once — function binary, context capacity, input/
        output set order, outgoing edges, engine group — so the per-
        invocation hot path does no registry lookups or edge scans.

        ``chain_steps`` is the topological step order when the
        composition is a *chain* (every node's outgoing edges all target
        the next node and every node's incoming edges all come from the
        previous one), else ``None``.  Under the event-driven schedule a
        chain runs strictly sequentially (node ``k+1`` cannot start
        before node ``k`` finishes), so the serial runner below produces
        identical virtual-time behaviour with none of the per-node event
        plumbing.  The plan is structural, so it is cached per
        composition object (registrations are immutable: the registry
        rejects re-registration under an existing name).
        """
        cached = self._serial_cache.get(id(composition))
        if cached is not None and cached[0] is composition:
            return cached[1], cached[2]
        bound_nodes = {binding.node for binding in composition.outputs}
        steps_by_name = {
            name: _NodeStep(self, composition, node, name in bound_nodes)
            for name, node in composition.nodes.items()
        }
        order = composition.topological_order
        chain = [steps_by_name[name] for name in order]
        for index in range(len(order) - 1):
            current, successor = order[index], order[index + 1]
            outgoing = composition.outgoing_edges(current)
            if not outgoing or any(edge.target != successor for edge in outgoing):
                chain = None
                break
            if any(
                edge.source != current
                for edge in composition.incoming_edges(successor)
            ):
                chain = None
                break
        self._serial_cache[id(composition)] = (composition, chain, steps_by_name)
        return chain, steps_by_name

    def _run_serial(self, composition, inputs, invocation_id, chain):
        """Run a chain composition node by node in this process.

        Timing-equivalent to the general event-driven path: instances
        run through the same ``_run_task_core``; a producer's contexts
        are released via a zero-delay timer scheduled when its
        successor launches (matching the consumed-event hop of the
        general path), and contexts of nodes with output bindings are
        held until the composition completes.
        """
        env = self.env
        delivered: dict[str, dict] = {name: {} for name in composition.nodes}
        for binding in composition.inputs:
            delivered[binding.node][binding.node_set] = (
                Distribution.ALL,
                DataSet.renamed(inputs[binding.external], binding.node_set),
            )
        node_outputs: dict[str, dict] = {}
        held: list[MemoryContext] = []     # freed when the composition completes
        pending: list[MemoryContext] = []  # previous node's, freed at successor launch
        failure: Optional[NodeFailure] = None
        for step in chain:
            node_name = step.node.name
            node_deliveries = delivered[node_name]
            triples = [
                (set_name, *node_deliveries[set_name])
                for set_name in step.input_names
            ]
            try:
                plans = expand_instances(node_name, triples)
            except InvocationError as exc:
                failure = NodeFailure(node_name, exc)
                break
            if len(plans) == 1:
                if pending:
                    self._schedule_release(pending)
                    pending = []
                results = [
                    (yield from self._run_instance_serial(step, plans[0], invocation_id))
                ]
            else:
                processes = [
                    env.process(self._run_instance_serial(step, plan, invocation_id))
                    for plan in plans
                ]
                if pending:
                    self._schedule_release(pending)
                    pending = []
                yield env.all_of(processes)
                results = [process.value for process in processes]
            failure = next(
                (value for value, _ctx in results if isinstance(value, NodeFailure)),
                None,
            )
            if failure is not None:
                # Failed instances released their context already;
                # successful siblings' contexts are consumed by the
                # failure propagation, as in the general path.
                pending.extend(ctx for _v, ctx in results if ctx is not None)
                break
            merged = merge_instance_outputs(
                step.output_names, [value for value, _ctx in results]
            )
            node_outputs[node_name] = merged
            pending = [ctx for _v, ctx in results if ctx is not None]
            if step.bound:
                # Output bindings are only delivered when the whole
                # composition finishes, so these contexts stay live.
                held.extend(pending)
                pending = []
            for target, target_set, distribution, source_set in step.edges_out:
                delivered[target][target_set] = (
                    distribution,
                    DataSet.renamed(merged[source_set], target_set),
                )
        if failure is not None:
            if pending:
                held.extend(pending)
            if held:
                self._schedule_release(held)
            raise InvocationError(
                f"node {failure.node_name!r} failed: {failure.error}"
            )
        held.extend(pending)
        if held:
            self._schedule_release(held)
        outputs: dict[str, DataSet] = {}
        for binding in composition.outputs:
            outputs[binding.external] = DataSet.renamed(
                node_outputs[binding.node][binding.node_set], binding.external
            )
        return outputs

    def _run_instance_serial(self, step, plan, invocation_id):
        """Like :meth:`_run_instance` but returns ``(value, context)``
        so the serial runner controls context freeing."""
        if step.kind == "composition":
            result = yield from self._run_nested(step.node, plan, invocation_id)
            return result, None
        result = yield from self._run_task_core(invocation_id, step, plan)
        return result

    def _schedule_release(self, contexts) -> None:
        """Release ``contexts`` one event-heap hop from now.

        Mirrors the general path, where a producer's free condition
        fires in a heap step at the same virtual time as consumption.
        """
        contexts = list(contexts)

        def _release(_event, release=self._release_context, contexts=contexts):
            for context in contexts:
                release(context)

        self.env.timeout(0.0).callbacks.append(_release)

    def _run_node(self, state: "_CompositionRun", node):
        """Process executing one node of a composition run."""
        composition = state.composition
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
            self._mark_consumed(state, node)
            self._propagate(state, node, failure=upstream_failure)
            return

        try:
            plans = expand_instances(node.name, delivered)
        except InvocationError as exc:
            self._mark_consumed(state, node)
            self._propagate(state, node, failure=NodeFailure(node.name, exc))
            return

        if len(plans) == 1:
            # Fast path: a single instance needs no fan-out bookkeeping,
            # so run it inline in this process instead of spawning one.
            self._mark_consumed(state, node)
            value = yield from self._run_instance(state, node, plans[0])
            per_instance = [value]
        else:
            instance_processes = [
                self.env.process(self._run_instance(state, node, plan)) for plan in plans
            ]
            # Inputs are now copied into instance contexts; upstream
            # producers may free theirs.
            self._mark_consumed(state, node)

            gathered = yield self.env.all_of(instance_processes)
            per_instance = [process.value for process in instance_processes]
        failure = next(
            (value for value in per_instance if isinstance(value, NodeFailure)), None
        )
        if failure is not None:
            self._propagate(state, node, failure=failure)
            return
        merged = merge_instance_outputs(list(node.output_sets), per_instance)
        self._propagate(state, node, outputs=merged)

    def _mark_consumed(self, state: "_CompositionRun", node) -> None:
        for set_name in node.input_sets:
            event = state.consumed[(node.name, set_name)]
            if not event.triggered:
                event.succeed()

    def _propagate(self, state, node, outputs=None, failure=None) -> None:
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

    # -- instance execution ---------------------------------------------------

    def _run_instance(self, state, node, plan):
        """Process executing one instance; returns outputs or NodeFailure."""
        if node.kind == "composition":
            result = yield from self._run_nested(node, plan, state.invocation_id)
            return result
        result = yield from self._run_task(state, node, plan)
        return result

    def _run_nested(self, node: CompositionNode, plan, invocation_id):
        inputs = {
            data_set.ident: data_set for data_set in plan.input_sets
        }
        try:
            outputs = yield from self._run_composition(
                node.composition, inputs, invocation_id
            )
        except InvocationError as exc:
            return NodeFailure(node.name, exc)
        return [DataSet.renamed(outputs[name], name) for name in node.output_sets]

    def _run_task(self, state, node, plan):
        """Run one engine task (general path: freeing via consumed events)."""
        value, context = yield from self._run_task_core(
            state.invocation_id, state.steps[node.name], plan
        )
        if context is not None:
            self._free_after_consumption(state, node, context)
        return value

    def _run_task_core(self, invocation_id, step, plan):
        """Run one engine task with context lifecycle and retries.

        Returns ``(outputs_or_failure, context)``; the context is
        ``None`` when the task failed (it is already released).  The
        caller arranges when the returned context is freed.
        """
        node_name = step.node.name
        binary = step.binary
        context = MemoryContext(
            step.capacity, ident=f"inv{invocation_id}/{node_name}[{plan.index}]"
        )
        zero_copy = self.data_passing == "remap"
        if not zero_copy:
            # Copy mode: inputs are duplicated into the new context.
            context.store_sets(plan.input_sets)
        self.memory.observe(context)

        group = step.group
        task = Task(
            kind=step.kind,
            input_sets=plan.input_sets,
            output_set_names=step.output_names,
            completion=self.env.event(),
            context=context,
            binary=binary,
            cached=self._binary_cached(binary) if binary is not None else False,
            zero_copy=zero_copy,
            protocol=step.protocol,
            timeout=self.default_timeout,
            invocation_id=invocation_id,
            node_name=node_name,
            instance_index=plan.index,
        )
        # The deadline is a budget for the whole node execution —
        # attempts *and* the backoff sleeps between them — anchored at
        # first submission.  (Per-attempt deadlines let a retry chain
        # sleep past the point the caller stopped waiting.)
        deadline_at = (
            self.env.now + task.timeout if task.timeout is not None else None
        )
        attempts = 0
        while True:
            group.submit(task)
            outcome = yield from self._await_task(task, deadline_at)
            if outcome.success:
                break
            if outcome.transient and attempts < self.max_retries:
                attempts += 1
                self.retries_performed += 1
                delay = self._backoff_seconds(attempts)
                if deadline_at is not None and delay >= deadline_at - self.env.now:
                    # The backoff sleep alone would overrun the
                    # deadline; surface DeadlineExceeded now instead of
                    # sleeping past the point the caller gave up.
                    self.deadline_expirations += 1
                    self._release_context(context)
                    return (
                        NodeFailure(
                            node_name,
                            DeadlineExceeded(
                                f"node {node_name!r} exhausted its "
                                f"{task.timeout}s deadline backing off for "
                                f"retry {attempts}"
                            ),
                        ),
                        None,
                    )
                # Back off through virtual time before re-submitting —
                # an immediate resubmit would hit the same crashed
                # engine state in the same simulated instant.
                yield self.env.timeout(delay)
                # Retry the same task with fresh per-attempt state: a
                # new completion event and a re-drawn cache outcome
                # (identical rng stream to rebuilding the task).
                task.completion = self.env.event()
                if binary is not None:
                    task.cached = self._binary_cached(binary)
                continue
            self._release_context(context)
            return NodeFailure(node_name, outcome.error), None

        # Outputs live in the instance's context until consumers have
        # copied them out.
        try:
            context.store_sets(outcome.outputs, offset=context.committed)
        except ContextError:
            # Outputs exceeding the reservation only affect accounting
            # granularity, never the data itself.  Anything other than
            # a capacity/encoding ContextError is a programming error
            # and must propagate.
            pass
        self.memory.observe(context)
        return outcome.outputs, context

    def _await_task(self, task: Task, deadline_at=None):
        """Wait on a task's completion, bounded by its deadline (§6.1).

        Without a timeout this is a bare wait — the exact event stream
        the fast path has always had.  With one, the wait races the
        completion against the *remaining* budget until ``deadline_at``
        (anchored at first submission, so retries never extend it); a
        missed deadline yields a non-retryable
        :class:`DeadlineExceeded` outcome.  The engine may still finish
        the task later in virtual time, but its completion then fires
        with no waiters and the result is discarded.
        """
        if task.timeout is None:
            outcome = yield task.completion
            return outcome
        remaining = (
            task.timeout if deadline_at is None else deadline_at - self.env.now
        )
        if remaining <= 0:
            self.deadline_expirations += 1
            return TaskOutcome(
                success=False,
                error=DeadlineExceeded(
                    f"node {task.node_name!r} missed its {task.timeout}s deadline"
                ),
                transient=False,
            )
        deadline = self.env.timeout(remaining)
        yield self.env.any_of([task.completion, deadline])
        if task.completion.processed:
            return task.completion.value
        self.deadline_expirations += 1
        return TaskOutcome(
            success=False,
            error=DeadlineExceeded(
                f"node {task.node_name!r} missed its {task.timeout}s deadline"
            ),
            transient=False,
        )

    def _backoff_seconds(self, attempt: int) -> float:
        """Exponential backoff with deterministic seeded jitter.

        ``attempt`` is 1-based.  The jitter draw only happens on actual
        retries, so fault-free runs never touch the rng stream.
        """
        delay = self.retry_backoff_base * _RETRY_BACKOFF_FACTOR ** (attempt - 1)
        if self.retry_rng is not None:
            delay *= 1.0 + _RETRY_JITTER_FRACTION * self.retry_rng.uniform()
        return delay

    def _free_after_consumption(self, state, node, context: MemoryContext) -> None:
        """Arrange for ``context`` to be freed once consumers are done.

        Registered as a callback on the consumed/output events rather
        than as a generator process: per instance this saves one
        process object plus its initialize/resume event churn.
        """
        composition = state.composition
        waits = [
            state.consumed[(edge.target, edge.target_set)]
            for edge in composition.outgoing_edges(node.name)
        ]
        for binding in composition.outputs:
            if binding.node == node.name:
                waits.append(state.output_events[binding.external])
        if not waits:
            self._release_context(context)
            return
        self.env.all_of(waits).callbacks.append(
            lambda _event: self._release_context(context)
        )

    def _release_context(self, context: MemoryContext) -> None:
        context.free()
        self.memory.release(context)

    # -- binary cache model -----------------------------------------------------

    def _binary_cached(self, binary) -> bool:
        """Whether this load is served from the in-RAM binary cache.

        ``warm``: first invocation of a function loads from disk, later
        ones hit the cache (optionally, ``cold_load_fraction`` of
        requests bypass it, as in Fig 6's "3% of requests load from
        disk").  ``always``/``never`` force one behaviour; ``fraction``
        uses ``cold_load_fraction`` alone.
        """
        if self.cache_mode == "always":
            return True
        if self.cache_mode == "never":
            return False
        if self.cache_mode == "fraction":
            if self.cache_rng is None:
                raise ValueError("cache_mode='fraction' requires cache_rng")
            return not self.cache_rng.bernoulli(self.cold_load_fraction)
        # warm
        if binary.name not in self._warm_binaries:
            self._warm_binaries.add(binary.name)
            return False
        if self.cold_load_fraction > 0 and self.cache_rng is not None:
            return not self.cache_rng.bernoulli(self.cold_load_fraction)
        return True


@dataclass
class _CompositionRun:
    """Shared state of one composition run."""

    composition: Composition
    deliveries: dict
    consumed: dict
    output_events: dict
    invocation_id: int
    steps: dict
