"""The dispatcher — orchestration of composition invocations (§5, §6.1).

"The dispatcher orchestrates composition invocations using separate
green threads.  It queues functions as their inputs become available
and coordinates data movement."  Here the green threads are
continuations: :meth:`Dispatcher.start` takes the caller's ``on_done``
and nothing on the path of a chain-shaped composition is a simulation
process.  A chain is walked by one :class:`_ChainRun`; every engine
task, on either runner, is one :class:`_TaskRun` from submission to
stored outputs.  Only a composition that fans out or joins still runs
one process per node, which waits for its inputs and then, through one
event, for all of its instances.  The dispatcher:

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
        "edges_out",
    )

    def __init__(self, dispatcher: "Dispatcher", composition, node):
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
        # Composition id -> (composition, chain steps or None, steps by
        # name); see _compile.
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
        if self.static_admission and composition.deadline_seconds is not None:
            summary = self.cost_summary(composition.name)
            if summary.deadline_feasible is False:
                self.admission_rejections += 1
                finish(
                    InvocationError(
                        f"composition {composition.name!r} statically rejected: "
                        f"critical path {summary.critical_path_seconds:.6g}s "
                        f"cannot meet the {composition.deadline_seconds}s deadline"
                    )
                )
                return
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

        chain, steps = self._compile(composition)
        if chain is not None:
            # Chain-shaped composition (every node's sole successor is
            # the next node): the event-driven schedule is provably
            # sequential, so walk the nodes without the
            # delivery/consumed/output event machinery.
            _ChainRun(self, composition, inputs, invocation_id, chain, on_done)
            return

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

        self.env.all_of(list(output_events.values())).callbacks.append(
            partial(self._gathered, composition, output_events, on_done)
        )

    def _gathered(self, composition, output_events, on_done, _event) -> None:
        outputs: dict[str, DataSet] = {}
        failure: Optional[NodeFailure] = None
        for binding in composition.outputs:
            value = output_events[binding.external].value
            if isinstance(value, NodeFailure):
                failure = value
            else:
                outputs[binding.external] = DataSet.renamed(value, binding.external)
        on_done(outputs if failure is None else _node_failed(failure))

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
        before node ``k`` finishes), so :class:`_ChainRun` produces
        identical virtual-time behaviour with none of the per-node event
        plumbing (tests/dispatcher/test_runner_equivalence.py holds the
        two runners to that).  The plan is structural, so it is cached per
        composition object (registrations are immutable: the registry
        rejects re-registration under an existing name).
        """
        cached = self._serial_cache.get(id(composition))
        if cached is not None and cached[0] is composition:
            return cached[1], cached[2]
        steps_by_name = {
            name: _NodeStep(self, composition, node)
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

    def _release_contexts(self, contexts: list) -> None:
        for context in contexts:
            self._release_context(context)

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

        # Instances copy their inputs in as they start, in this heap
        # step; upstream producers free theirs a step later.
        self._mark_consumed(state, node)
        gather = _Gather(self, state, node, len(plans))
        step = state.steps[node.name]
        for plan in plans:
            self._start_instance(step, plan, state.invocation_id, gather.instance_done)
        per_instance = yield gather.done
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


class _Gather:
    """The general runner's wait for every instance of one node:
    ``done`` fires with their values in plan order."""

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
            self.dispatcher._free_after_consumption(self.state, self.node, context)
        self.values[index] = value
        self.remaining -= 1
        if not self.remaining:
            self.done.succeed(self.values)


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
        "attempts", "on_done",
    )

    def __init__(self, dispatcher: Dispatcher, invocation_id: int, step: _NodeStep, plan, on_done):
        self.dispatcher = dispatcher
        self.step = step
        self.index = plan.index
        self.on_done = on_done
        self.attempts = 0
        node_name = step.node.name
        binary = step.binary
        context = self.context = MemoryContext(
            step.capacity, ident=f"inv{invocation_id}/{node_name}[{plan.index}]"
        )
        zero_copy = dispatcher.data_passing == "remap"
        if not zero_copy:
            # Copy mode: inputs are duplicated into the new context.
            context.store_sets(plan.input_sets)
        dispatcher.memory.observe(context)
        env = dispatcher.env
        timeout = dispatcher.default_timeout
        self.task = Task(
            kind=step.kind,
            input_sets=plan.input_sets,
            output_set_names=step.output_names,
            completion=env.event(),
            context=context,
            binary=binary,
            cached=dispatcher._binary_cached(binary) if binary is not None else False,
            zero_copy=zero_copy,
            protocol=step.protocol,
            timeout=timeout,
            invocation_id=invocation_id,
            node_name=node_name,
            instance_index=plan.index,
        )
        # The deadline is a budget for the whole node execution —
        # attempts *and* the backoff sleeps between them — anchored at
        # first submission.  (Per-attempt deadlines let a retry chain
        # sleep past the point the caller stopped waiting.)
        self.deadline_at = env.now + timeout if timeout is not None else None
        self._submit()

    def _submit(self) -> None:
        """Queue the task and wait for its completion, bounded by the
        *remaining* budget until ``deadline_at`` (§6.1).  A missed
        deadline is a non-retryable :class:`DeadlineExceeded`; the
        engine may still finish the task later in virtual time, but its
        completion then fires with no waiters and the result is
        discarded."""
        task = self.task
        self.step.group.submit(task)
        if self.deadline_at is not None:
            env = self.dispatcher.env
            remaining = self.deadline_at - env.now
            if remaining <= 0:
                self._expire()
                return
            env.call_later(remaining, self._deadline, task.completion)
        task.completion.callbacks.append(self._completed)

    def _deadline(self, completion) -> None:
        # The timer of an attempt that already completed is stale.
        if not completion.processed:
            completion.callbacks.remove(self._completed)
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

    def _completed(self, completion) -> None:
        outcome: TaskOutcome = completion.value
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
        # Retry the same task with fresh per-attempt state: a new
        # completion event and a re-drawn cache outcome (identical rng
        # stream to rebuilding the task).
        task = self.task
        task.completion = self.dispatcher.env.event()
        if task.binary is not None:
            task.cached = self.dispatcher._binary_cached(task.binary)
        self._submit()

    def _fail(self, error: BaseException) -> None:
        self.dispatcher._release_context(self.context)
        self.on_done(self.index, None, NodeFailure(self.task.node_name, error))


class _ChainRun:
    """One run of a chain composition, node by node, as callbacks.

    Timing-equivalent to the general event-driven path: instances run
    through the same :class:`_TaskRun`, and a producer's contexts are
    released one zero-delay heap hop after its successor has allocated
    (matching the consumed-event hop of the general path); the last
    node's when the composition completes.
    """

    __slots__ = (
        "dispatcher", "composition", "invocation_id", "steps", "delivered",
        "outputs", "pending", "step", "results", "remaining", "on_done",
    )

    def __init__(self, dispatcher: Dispatcher, composition, inputs, invocation_id, chain, on_done):
        self.dispatcher = dispatcher
        self.composition = composition
        self.invocation_id = invocation_id
        self.steps = iter(chain)
        self.on_done = on_done
        delivered = self.delivered = {name: {} for name in composition.nodes}
        for binding in composition.inputs:
            delivered[binding.node][binding.node_set] = (
                Distribution.ALL,
                DataSet.renamed(inputs[binding.external], binding.node_set),
            )
        self.outputs: dict[str, dict] = {}   # node name -> merged output sets
        self.pending: list[MemoryContext] = []  # previous node's, freed at successor launch
        self._advance()

    def _advance(self) -> None:
        step = self.step = next(self.steps, None)
        if step is None:
            outputs = self.outputs
            self._finish(
                {
                    binding.external: DataSet.renamed(
                        outputs[binding.node][binding.node_set], binding.external
                    )
                    for binding in self.composition.outputs
                }
            )
            return
        node = step.node
        node_deliveries = self.delivered[node.name]
        triples = [
            (set_name, *node_deliveries[set_name]) for set_name in step.input_names
        ]
        try:
            plans = expand_instances(node.name, triples)
        except InvocationError as exc:
            self._finish(_node_failed(NodeFailure(node.name, exc)))
            return
        count = self.remaining = len(plans)
        self.results = [None] * count
        call_later = self.dispatcher.env.call_later
        if count > 1:
            # A fan-out starts one heap hop from now, as it does under
            # the general runner: by then the engine whose completion
            # led here is waiting on the queue again, so the tasks meet
            # the engines (and their fault and cache draws) in the same
            # order.
            call_later(0.0, self._start, plans)
        # Scheduled before the instances allocate, run after.
        self._release_pending()
        if count == 1:
            self._start(plans)
        elif not count:
            # An empty ``each``/``key`` delivery: no instances, empty
            # output sets, and on to the successor after that release.
            call_later(0.0, self._node_done)

    def _start(self, plans) -> None:
        for plan in plans:
            self.dispatcher._start_instance(
                self.step, plan, self.invocation_id, self._instance_done
            )

    def _instance_done(self, index: int, context, value) -> None:
        self.results[index] = (value, context)
        self.remaining -= 1
        if not self.remaining:
            self._node_done()

    def _node_done(self) -> None:
        results = self.results
        # Failed instances released their context already; successful
        # siblings' contexts are consumed by the failure propagation, as
        # in the general path.
        self.pending = [ctx for _value, ctx in results if ctx is not None]
        values = [value for value, _ctx in results]
        failure = next(
            (value for value in values if isinstance(value, NodeFailure)), None
        )
        if failure is not None:
            self._finish(_node_failed(failure))
            return
        step = self.step
        merged = self.outputs[step.node.name] = merge_instance_outputs(
            step.output_names, values
        )
        for target, target_set, distribution, source_set in step.edges_out:
            self.delivered[target][target_set] = (
                distribution,
                DataSet.renamed(merged[source_set], target_set),
            )
        self._advance()

    def _release_pending(self) -> None:
        """Release the pending contexts one heap hop from now, where the
        general path's free condition fires: in a heap step at the same
        virtual time as consumption."""
        if self.pending:
            dispatcher = self.dispatcher
            dispatcher.env.call_later(0.0, dispatcher._release_contexts, self.pending)
            self.pending = []

    def _finish(self, outcome) -> None:
        self._release_pending()
        self.on_done(outcome)
