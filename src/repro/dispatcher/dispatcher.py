"""The dispatcher — orchestration of composition invocations (§5, §6.1).

"The dispatcher orchestrates composition invocations using separate
green threads.  It queues functions as their inputs become available
and coordinates data movement."  Here the green threads are
continuations: :meth:`Dispatcher.start` takes the caller's ``on_done``
and nothing between it and the engine queues is a simulation process.
One invocation is one :class:`_CompositionRun`, a callback state
machine over per-node counters — input sets still to arrive, instances
still running, consumers still to pick up a node's outputs — and every
engine task is one :class:`_TaskRun` from submission to stored outputs.
A chain is the degenerate case: one node ready at a time.  The
dispatcher:

* tracks input/output dependencies and launches a node once every one
  of its input sets has been delivered;
* expands ``each``/``key`` edges into parallel instances
  (:mod:`repro.dispatcher.expansion`);
* prepares an isolated memory context per instance, charges the
  inputs' wire size to it in copy mode, and enqueues a task on the
  compute or communication queue;
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
from functools import partial
from typing import Callable, Optional

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


def _node_failed(failure: NodeFailure) -> InvocationError:
    error = InvocationError(f"node {failure.node_name!r} failed: {failure.error}")
    error.__cause__ = failure.error
    return error


class _NodeStep:
    """Static per-node execution facts, resolved once per composition.

    Node structure never changes after registration, so the dispatcher
    compiles each node's hot-path constants — resolved binary, context
    capacity, set-name order, target engine group, and where the node
    sits in the plan's counter and slot arrays — instead of re-deriving
    them on every invocation.
    """

    __slots__ = (
        "node",
        "kind",
        "binary",
        "capacity",
        "group",
        "input_names",
        "output_names",
        "index",
        "first_slot",
        "producers",
        "edges_out",
        "bindings",
    )

    def __init__(self, dispatcher: "Dispatcher", composition, node, index_of, slot_of):
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
        name = node.name
        self.index = index_of[name]
        self.first_slot = slot_of[(name, self.input_names[0])] if self.input_names else 0
        # Producer of each input set fed by an edge, in input-set order.
        source_of = {
            edge.target_set: index_of[edge.source]
            for edge in composition.incoming_edges(name)
        }
        self.producers = [
            source_of[set_name] for set_name in self.input_names if set_name in source_of
        ]
        self.edges_out = [
            (
                index_of[edge.target],
                slot_of[(edge.target, edge.target_set)],
                edge.distribution,
                edge.source_set,
                edge.target_set,
            )
            for edge in composition.outgoing_edges(name)
        ]
        # (position in composition.outputs, bound output set)
        self.bindings = [
            (position, binding.node_set)
            for position, binding in enumerate(composition.outputs)
            if binding.node == name
        ]


class _Plan:
    """A composition's execution plan (see :meth:`Dispatcher._compile`).

    ``pending`` and ``consumers`` are the per-node counter templates a
    run copies: input sets to arrive, and consumers (outgoing edges plus
    output bindings) to pick up the node's outputs.  Every ``(node,
    input set)`` has one slot in a flat array; ``feeds`` put the
    composition inputs into theirs.
    """

    __slots__ = (
        "composition", "steps", "inputs", "outputs", "feeds", "sources",
        "pending", "consumers", "slot_count",
    )

    def __init__(self, dispatcher: "Dispatcher", composition: Composition):
        self.composition = composition
        index_of = {name: index for index, name in enumerate(composition.nodes)}
        slot_of: dict[tuple[str, str], int] = {}
        for node in composition.nodes.values():
            for set_name in node.input_sets:
                slot_of[(node.name, set_name)] = len(slot_of)
        self.slot_count = len(slot_of)
        steps = self.steps = [
            _NodeStep(dispatcher, composition, node, index_of, slot_of)
            for node in composition.nodes.values()
        ]
        self.inputs = {binding.external for binding in composition.inputs}
        self.outputs = [binding.external for binding in composition.outputs]
        self.feeds = [
            (slot_of[(binding.node, binding.node_set)], index_of[binding.node],
             binding.external, binding.node_set)
            for binding in composition.inputs
        ]
        self.pending = [len(step.input_names) for step in steps]
        self.sources = [step for step in steps if not step.input_names]
        self.consumers = [len(step.edges_out) + len(step.bindings) for step in steps]


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
        "max_retries",
        "default_timeout",
        "retry_rng",
        "retries_performed",
        "deadline_expirations",
        "_warm_binaries",
        "_plans",
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
        max_retries: int = 2,
        default_timeout: Optional[float] = None,
        data_passing: str = "copy",
        retry_rng=None,
    ):
        self.env = env
        self.registry = registry
        self.compute_group = compute_group
        self.comm_group = comm_group
        self.memory = memory or MemoryTracker(env)
        if cache_mode not in ("warm", "always", "never"):
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
        self.max_retries = max_retries
        self.default_timeout = default_timeout
        self.retry_rng = retry_rng
        self.retries_performed = 0
        self.deadline_expirations = 0
        self._warm_binaries: set[str] = set()
        # Composition id -> its _Plan; see _compile.
        self._plans: dict[int, _Plan] = {}
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

    def invoke(self, composition_name: str, inputs: dict[str, DataSet]):
        """Start an invocation; returns an event → InvocationResult."""
        done = self.env.event()
        self.start(composition_name, inputs, done.succeed)
        return done

    def start(self, composition_name: str, inputs: dict[str, DataSet], on_done: Callable[[InvocationResult], None]) -> None:
        """Start an invocation; ``on_done(result)`` is called when it
        completes or fails.  An unknown name raises here."""
        composition = self.registry.composition(composition_name)
        invocation_id = next(self._invocation_ids)
        self.invocations_started += 1
        result = InvocationResult(invocation_id=invocation_id, started_at=self.env.now)
        finish = partial(self._finish, result, on_done)
        self._run_composition(composition, inputs, invocation_id, finish)

    def _finish(self, result: InvocationResult, on_done, outcome) -> None:
        if isinstance(outcome, InvocationError):
            result.error = outcome
            self.invocations_failed += 1
        else:
            result.outputs = outcome
            self.invocations_completed += 1
        result.finished_at = self.env.now
        on_done(result)

    # -- composition execution ------------------------------------------------

    def _run_composition(self, composition: Composition, inputs: dict[str, DataSet], invocation_id: int, on_done) -> None:
        """Run one composition (top-level or nested); ``on_done`` gets
        the output-name -> DataSet dict, or the :class:`InvocationError`."""
        plan = self._compile(composition)
        if inputs.keys() != plan.inputs:
            on_done(
                InvocationError(
                    f"composition {composition.name!r} expects inputs {sorted(plan.inputs)}, "
                    f"got {sorted(inputs)}"
                )
            )
            return
        _CompositionRun(self, plan, inputs, invocation_id, on_done)

    def _compile(self, composition: Composition) -> _Plan:
        """Per-composition execution plan, one :class:`_NodeStep` per node.

        Every node's static execution facts are resolved once — function
        binary, context capacity, input/output set order, engine group,
        producers, outgoing edges with their target slots, output
        bindings — so the per-invocation hot path does no registry
        lookups or edge scans.  The plan is structural, so it is cached
        per composition object (registrations are immutable: the
        registry rejects re-registration under an existing name).
        """
        plan = self._plans.get(id(composition))
        if plan is None or plan.composition is not composition:
            plan = self._plans[id(composition)] = _Plan(self, composition)
        return plan

    def _release_contexts(self, contexts: list) -> None:
        for context in contexts:
            self._release_context(context)

    # -- instance execution ---------------------------------------------------

    def _start_instance(self, step: _NodeStep, plan, invocation_id: int, on_done) -> None:
        """Run one instance of a node; ``on_done(index, context, value)``
        gets its output sets or a :class:`NodeFailure`, and the live
        context holding them (``None`` for a nested composition, whose
        contexts are its own, and after a failure).  The caller arranges
        when that context is freed."""
        if step.kind != "composition":
            _TaskRun(self, invocation_id, step, plan, on_done)
            return
        node = step.node
        self._run_composition(
            node.composition,
            {data_set.ident: data_set for data_set in plan.input_sets},
            invocation_id,
            partial(self._nested_done, node, plan.index, on_done),
        )

    @staticmethod
    def _nested_done(node: CompositionNode, index: int, on_done, outcome) -> None:
        if isinstance(outcome, InvocationError):
            value = NodeFailure(node.name, outcome)
        else:
            value = [DataSet.renamed(outcome[name], name) for name in node.output_sets]
        on_done(index, None, value)

    def _backoff_seconds(self, attempt: int) -> float:
        """Exponential backoff with deterministic seeded jitter.

        ``attempt`` is 1-based.  The jitter draw only happens on actual
        retries, so fault-free runs never touch the rng stream.
        """
        delay = _RETRY_BACKOFF_BASE_SECONDS * _RETRY_BACKOFF_FACTOR ** (attempt - 1)
        if self.retry_rng is not None:
            delay *= 1.0 + _RETRY_JITTER_FRACTION * self.retry_rng.uniform()
        return delay

    def _release_context(self, context: MemoryContext) -> None:
        context.free()
        self.memory.release(context)

    # -- binary cache model -----------------------------------------------------

    def _binary_cached(self, binary) -> bool:
        """Whether this load is served from the in-RAM binary cache.

        ``warm``: first invocation of a function loads from disk, later
        ones hit the cache.  ``always``/``never`` force one behaviour.
        (Fig 6's "3% of requests load from disk" is modelled by
        :class:`~repro.experiments.loaded_dandelion.DandelionLoadModel`.)
        """
        if self.cache_mode == "always":
            return True
        if self.cache_mode == "never":
            return False
        # warm
        if binary.name not in self._warm_binaries:
            self._warm_binaries.add(binary.name)
            return False
        return True


class _CompositionRun:
    """One run of a composition: nodes are queued as their inputs arrive.

    Per node, ``pending`` counts the input sets still to be delivered
    and, once the node has started, its instances still running;
    ``consumers`` counts the consumers (outgoing edges, output bindings)
    that have not yet picked up its outputs, and the contexts holding
    them (``held``) are freed when it reaches zero.  Delivered sets wait
    in ``slots`` only until their node starts.  A failure travels the
    same edges as data and reaches the outputs it feeds.

    The heap hops mirror what the former generator runner's events
    implied (tests/dispatcher/generator_oracle.py;
    test_runner_equivalence.py holds the two to the same schedule):

    * a lone node with one instance starts in the heap step that
      delivered its last input;
    * anything more — a fan-out, several nodes ready in one step — is
      one *batch*, started one hop later in readiness order: by then
      the engine whose completion led here is waiting on the queue
      again, so the tasks meet the engines (and their fault and cache
      draws) in the same order.  A node that becomes ready while a
      batch is pending joins it;
    * a producer's contexts are released one hop after its last
      consumer has started (or, for an output binding, been handed the
      data), so after that consumer's instances have allocated;
    * a node with no instances (an empty ``each``/``key`` delivery)
      completes one hop after its start, after that release, and so
      does a batch member that a failure stops;
    * a nested composition begins, and reports back, one hop away.

    What these hops do not reproduce: when two task completions (or
    deadline expiries, which a batch arms for the same instant) fall in
    one instant, the allocations and releases they cause can interleave
    differently, because a lone start takes no hop where the former
    runner took three.  The chain runner this replaces did the same.
    """

    __slots__ = (
        "dispatcher", "plan", "invocation_id", "on_done", "pending",
        "consumers", "slots", "held", "outputs", "outputs_left", "batch",
    )

    def __init__(self, dispatcher: Dispatcher, plan: _Plan, inputs, invocation_id: int, on_done):
        self.dispatcher = dispatcher
        self.plan = plan
        self.invocation_id = invocation_id
        self.on_done = on_done
        pending = self.pending = plan.pending[:]
        self.consumers = plan.consumers[:]
        slots = self.slots = [None] * plan.slot_count
        self.held = [None] * len(pending)  # node -> its contexts, until consumed
        outputs_left = self.outputs_left = len(plan.outputs)
        self.outputs = [None] * outputs_left
        self.batch = None
        steps = plan.steps
        ready = plan.sources[:]
        for slot, node, external, node_set in plan.feeds:
            slots[slot] = (Distribution.ALL, DataSet.renamed(inputs[external], node_set))
            pending[node] -= 1
            if not pending[node]:
                ready.append(steps[node])
        self._launch(ready)

    def _launch(self, ready: list) -> None:
        """Start the steps in ``ready``, whose inputs have all arrived."""
        batch = self.batch
        if batch is None and len(ready) == 1:
            step = ready[0]
            plans = self._expand(step)
            if isinstance(plans, NodeFailure):
                self._consume(step)
                self._deliver(step, None, plans)
            elif len(plans) == 1:
                self._consume(step)
                self._start(step, plans)
            elif plans:
                self._begin_batch([(step, plans)])
                # Scheduled after the batch: released once it has allocated.
                self._consume(step)
            else:
                self._consume(step)
                self.dispatcher.env.call_later(0.0, self._complete_empty, [step])
            return
        if batch is None:
            batch = self._begin_batch([])
        batch.extend((step, None) for step in ready)

    def _begin_batch(self, batch: list) -> list:
        # One hop from now: the engine that completed the producer is
        # back on the queue, so the batch's tasks reach the engines in
        # readiness order, as they did from the former runner's steps.
        self.batch = batch
        self.dispatcher.env.call_later(0.0, self._run_batch)
        return batch

    def _run_batch(self) -> None:
        call_later = self.dispatcher.env.call_later
        empty = []
        # Steps made ready while the batch runs are appended to it.
        for step, plans in self.batch:
            if plans is None:
                plans = self._expand(step)
                self._consume(step)
                if isinstance(plans, NodeFailure):
                    # Passed on one hop later, in batch order with the
                    # releases and nested starts this batch schedules.
                    call_later(0.0, self._deliver, step, None, plans)
                    continue
            if plans:
                self._start(step, plans)
            else:
                empty.append(step)
        self.batch = None
        if empty:
            # After every hop the batch scheduled.
            call_later(0.0, self._complete_empty, empty)

    def _complete_empty(self, steps: list) -> None:
        """Nodes with no instances (an empty ``each``/``key`` delivery)
        complete one hop after their start, after their producers'
        release; the nodes they make ready start together, here or in
        the batch already pending."""
        batch = self.batch
        if batch is None:
            self.batch = []
        for step in steps:
            self._node_done(step, [])
        if batch is None:
            self._run_batch()

    def _expand(self, step: _NodeStep):
        """The node's instance plans, or the :class:`NodeFailure` (from
        upstream, or of the expansion) that stops it."""
        slots = self.slots
        slot = step.first_slot
        delivered = []
        failure = None
        for set_name in step.input_names:
            distribution, data = slots[slot]
            slots[slot] = None
            slot += 1
            if failure is None and isinstance(data, NodeFailure):
                failure = data
            delivered.append((set_name, distribution, data))
        if failure is not None:
            return failure
        try:
            return expand_instances(step.node.name, delivered)
        except InvocationError as exc:
            return NodeFailure(step.node.name, exc)

    def _consume(self, step: _NodeStep) -> None:
        """The node has taken its inputs: count it off its producers and
        release the contexts nobody else awaits."""
        consumers, held = self.consumers, self.held
        released = None
        for producer in step.producers:
            consumers[producer] -= 1
            if not consumers[producer] and held[producer]:
                released = held[producer] if released is None else released + held[producer]
                held[producer] = None
        if released:
            self._release_later(released)

    def _release_later(self, contexts: list) -> None:
        # One hop from now: after the consumer's instances have allocated.
        dispatcher = self.dispatcher
        dispatcher.env.call_later(0.0, dispatcher._release_contexts, contexts)

    def _start(self, step: _NodeStep, plans: list) -> None:
        count = len(plans)
        # From here on the node's pending counter counts running instances.
        self.pending[step.index] = count
        instance_done = partial(self._instance_done, step, [None] * count)
        if step.kind != "composition":
            self._start_instances(step, plans, instance_done)
            return
        # A nested run is one hop away on both sides, as the former
        # runner's processes were: it begins after this node's producers
        # are released and the nodes started beside it are on the
        # queues, and its outcome arrives after its own last contexts
        # are released.
        call_later = self.dispatcher.env.call_later
        call_later(
            0.0, self._start_instances, step, plans, partial(call_later, 0.0, instance_done)
        )

    def _start_instances(self, step: _NodeStep, plans: list, instance_done) -> None:
        start_instance = self.dispatcher._start_instance
        invocation_id = self.invocation_id
        for plan in plans:
            start_instance(step, plan, invocation_id, instance_done)

    def _instance_done(self, step: _NodeStep, values: list, index: int, context, value) -> None:
        values[index] = value
        node = step.index
        if context is not None:
            if not self.consumers[node]:
                # Nothing consumes this node's outputs.
                self.dispatcher._release_context(context)
            elif self.held[node] is None:
                self.held[node] = [context]
            else:
                self.held[node].append(context)
        self.pending[node] -= 1
        if not self.pending[node]:
            self._node_done(step, values)

    def _node_done(self, step: _NodeStep, values: list) -> None:
        for value in values:
            if isinstance(value, NodeFailure):
                # Successful siblings' contexts go when consumers take it.
                self._deliver(step, None, value)
                return
        self._deliver(step, merge_instance_outputs(step.output_names, values), None)

    def _deliver(self, step: _NodeStep, outputs, failure) -> None:
        """Hand a node's outputs (or failure) to its consumers."""
        bindings = step.bindings
        if bindings:
            # Output bindings take the data now; counted first, so a
            # release this causes is scheduled before anything below.
            node = step.index
            left = self.consumers[node] = self.consumers[node] - len(bindings)
            if not left and self.held[node]:
                self._release_later(self.held[node])
                self.held[node] = None
        if step.edges_out:
            slots = self.slots
            pending = self.pending
            steps = self.plan.steps
            ready = []
            for target, slot, distribution, source_set, target_set in step.edges_out:
                slots[slot] = (
                    distribution,
                    failure or DataSet.renamed(outputs[source_set], target_set),
                )
                pending[target] -= 1
                if not pending[target]:
                    ready.append(steps[target])
            if ready:
                self._launch(ready)
        if bindings:
            for position, node_set in bindings:
                self.outputs[position] = failure or outputs[node_set]
                self.outputs_left -= 1
            if not self.outputs_left:
                self._finish()

    def _finish(self) -> None:
        outputs: dict[str, DataSet] = {}
        failure: Optional[NodeFailure] = None
        for external, value in zip(self.plan.outputs, self.outputs):
            if isinstance(value, NodeFailure):
                failure = value
            else:
                outputs[external] = DataSet.renamed(value, external)
        self.outputs = None
        self.on_done(outputs if failure is None else _node_failed(failure))


class _TaskRun:
    """One engine task from submission to stored outputs, as a callback
    state machine: deadline race, transient retry with seeded backoff,
    context lifecycle.

    ``on_done(index, context, value)`` is called once, see
    :meth:`Dispatcher._start_instance`; a failed task's context is
    already released.
    """

    __slots__ = (
        "dispatcher", "step", "index", "task", "context", "deadline_at",
        "attempts", "waiting", "on_done",
    )

    def __init__(self, dispatcher: Dispatcher, invocation_id: int, step: _NodeStep, plan, on_done):
        self.dispatcher = dispatcher
        self.step = step
        self.index = plan.index
        self.on_done = on_done
        self.attempts = 0
        self.waiting = False
        node_name = step.node.name
        binary = step.binary
        context = self.context = MemoryContext(
            step.capacity, ident=f"inv{invocation_id}/{node_name}[{plan.index}]"
        )
        zero_copy = dispatcher.data_passing == "remap"
        if not zero_copy:
            # Only copy mode commits anything before the task runs.
            context.store_sets(plan.input_sets)
            dispatcher.memory.observe(context)
        env = dispatcher.env
        timeout = dispatcher.default_timeout
        self.task = Task(
            kind=step.kind,
            input_sets=plan.input_sets,
            output_set_names=step.output_names,
            binary=binary,
            cached=dispatcher._binary_cached(binary) if binary is not None else False,
            zero_copy=zero_copy,
            timeout=timeout,
            node_name=node_name,
        )
        # The deadline is a budget for the whole node execution —
        # attempts *and* the backoff sleeps between them — anchored at
        # first submission.  (Per-attempt deadlines let a retry chain
        # sleep past the point the caller stopped waiting.)
        self.deadline_at = env.now + timeout if timeout is not None else None
        self._submit()

    def _submit(self) -> None:
        """Queue the task and wait for its outcome, bounded by the
        *remaining* budget until ``deadline_at`` (§6.1).  A missed
        deadline is a non-retryable :class:`DeadlineExceeded`; the
        engine may still finish the task later in virtual time, but its
        outcome then finds the run no longer waiting and is discarded."""
        self.waiting = True
        self.step.group.submit(self.task, self._completed)
        if self.deadline_at is not None:
            env = self.dispatcher.env
            remaining = self.deadline_at - env.now
            if remaining <= 0:
                self._expire()
                return
            env.call_later(remaining, self._deadline, self.attempts)

    def _deadline(self, attempt: int) -> None:
        # The timer of an attempt that already completed is stale.
        if self.waiting and attempt == self.attempts:
            self._expire()

    def _expire(self, backing_off_for_retry: int = 0) -> None:
        self.dispatcher.deadline_expirations += 1
        task = self.task
        if backing_off_for_retry:
            how = (
                f"exhausted its {task.timeout}s deadline backing off for "
                f"retry {backing_off_for_retry}"
            )
        else:
            how = f"missed its {task.timeout}s deadline"
        self._fail(DeadlineExceeded(f"node {task.node_name!r} {how}"))

    def _completed(self, outcome: TaskOutcome) -> None:
        if not self.waiting:
            return  # the deadline expired first
        self.waiting = False
        dispatcher = self.dispatcher
        if outcome.success:
            # Outputs live in the instance's context until consumers
            # have copied them out.
            context = self.context
            try:
                context.store_sets(outcome.outputs, offset=context.committed)
            except ContextError:
                # Outputs exceeding the reservation only affect
                # accounting granularity, never the data itself.
                # Anything other than a capacity/encoding ContextError
                # is a programming error and must propagate.
                pass
            dispatcher.memory.observe(context)
            self.on_done(self.index, context, outcome.outputs)
            return
        if not (outcome.transient and self.attempts < dispatcher.max_retries):
            self._fail(outcome.error)
            return
        self.attempts += 1
        dispatcher.retries_performed += 1
        delay = dispatcher._backoff_seconds(self.attempts)
        deadline_at = self.deadline_at
        if deadline_at is not None and delay >= deadline_at - dispatcher.env.now:
            # The backoff sleep alone would overrun the deadline;
            # surface DeadlineExceeded now instead of sleeping past the
            # point the caller gave up.
            self._expire(backing_off_for_retry=self.attempts)
            return
        # Back off through virtual time before re-submitting — an
        # immediate resubmit would hit the same crashed engine state in
        # the same simulated instant.
        dispatcher.env.call_later(delay, self._resubmit)

    def _resubmit(self) -> None:
        # Retry the same task with a re-drawn cache outcome (identical
        # rng stream to rebuilding the task).
        task = self.task
        if task.binary is not None:
            task.cached = self.dispatcher._binary_cached(task.binary)
        self._submit()

    def _fail(self, error: BaseException) -> None:
        self.waiting = False
        self.dispatcher._release_context(self.context)
        self.on_done(self.index, None, NodeFailure(self.task.node_name, error))
