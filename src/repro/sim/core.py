"""Discrete-event simulation kernel.

This module implements a small, self-contained process-based
discrete-event simulator in the style of SimPy.  Every platform in the
reproduction (Dandelion worker nodes, Firecracker hosts, the Knative
autoscaler, the simulated network) runs on top of this kernel, so that
microsecond-scale timing behaviour from the paper can be modelled
faithfully even though the host is Python.

The public surface is:

``Environment``
    Owns the virtual clock and the event queue.  ``env.process(gen)``
    turns a generator into a running :class:`Process`; ``env.run()``
    drives the simulation.

``Event``
    One-shot occurrence with a value.  Trigger with :meth:`Event.succeed`
    or :meth:`Event.fail`.

``Timeout``
    Event that fires after a fixed delay of virtual time.

``Process``
    A running generator.  Processes *yield* events to wait on them; a
    process is itself an event that fires when the generator returns.

``AllOf`` / ``AnyOf``
    Composite conditions over several events.

``env.call_later(delay, fn, *args)``
    A scheduled call: one heap entry that *is* the call, for work that
    waits once and cannot be interrupted (docs/simulation.md).

Time is a float; the unit is **seconds** throughout the code base.

Fast-path invariants (everything downstream schedules millions of
events per experiment, so the kernel keeps allocations minimal):

- every event class declares ``__slots__``; subclasses defined outside
  this module may omit it (they then carry a ``__dict__``, which is
  fine — only the kernel's own classes need to stay lean);
- ``Timeout``/``Initialize`` construction and ``succeed``/``fail`` push
  straight onto the environment heap without intermediate helpers;
- heap entries are ``(time, priority, seq, event)`` tuples where ``seq``
  is a monotonically increasing tie-breaker, giving deterministic FIFO
  order for same-time events.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event lifecycle states.
_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2


class Event:
    """A one-shot occurrence in virtual time.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail`
    schedules the event; the environment then runs its callbacks
    (usually resuming processes waiting on it).
    """

    __slots__ = ("env", "callbacks", "_state", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._state = _PENDING
        self._value: Any = None
        self._ok = True
        # Failed events whose exception is never retrieved should not
        # pass silently; the environment re-raises them unless someone
        # waited on the event (defused).
        self._defused = False

    # -- inspection ---------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether the event has been scheduled to occur."""
        return self._state != _PENDING

    @property
    def processed(self) -> bool:
        """Whether the event's callbacks have already run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, for failed events)."""
        if self._state == _PENDING:
            raise SimulationError("value of a pending event is not available")
        return self._value

    # -- triggering ---------------------------------------------------

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule the event to occur, carrying ``value``.

        ``delay`` schedules the occurrence that many virtual seconds in
        the future (default: now).  A delayed succeed lets a producer
        that already knows an outcome publish it without allocating a
        separate :class:`Timeout` — engines use this to fire a task's
        completion directly at ``now + service_time``.
        """
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        heappush(env._queue, (env._now + delay, 1, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Schedule the event to occur now, failing with ``exception``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        env = self.env
        seq = env._seq
        env._seq = seq + 1
        heappush(env._queue, (env._now, 1, seq, self))
        return self

    def _mark_processed(self) -> None:
        self._state = _PROCESSED

    def __repr__(self) -> str:
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}[self._state]
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds of virtual time from now."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # Inlined Event.__init__ plus scheduling: a Timeout is born
        # triggered, so it goes straight onto the heap.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._state = _TRIGGERED
        self.delay = delay
        seq = env._seq
        env._seq = seq + 1
        heappush(env._queue, (env._now + delay, 1, seq, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class Initialize(Event):
    """Internal event used to start a freshly created process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        self.env = env
        self.callbacks = [process._resume]
        self._value = None
        self._ok = True
        self._defused = False
        self._state = _TRIGGERED
        seq = env._seq
        env._seq = seq + 1
        heappush(env._queue, (env._now, 1, seq, self))


def _fire(call: "_Call") -> None:
    call.fn(*call.args)


# Shared by every scheduled call, so a call refers to nothing that
# refers back to it.
_FIRE = (_fire,)


class _Call:
    """Heap entry of :meth:`Environment.call_later`.

    Not an :class:`Event`: nothing can wait on it.  It only carries the
    attributes the run loop touches on every entry it pops.
    """

    __slots__ = ("fn", "args", "callbacks", "_state")
    _ok = True
    _defused = False


class Process(Event):
    """A running generator; also an event that fires on completion.

    Processes drive the simulation: they ``yield`` events and are
    resumed when those events occur.  The value of a completed process
    is the generator's return value.
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, env: "Environment", generator: Generator):
        if not hasattr(generator, "send"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Optional[Event] = None
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a
        process blocked on an event detaches it from that event.
        """
        if not self.is_alive:
            raise SimulationError("cannot interrupt a finished process")
        if self._target is self:
            raise SimulationError("process cannot interrupt itself")
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event._state = _TRIGGERED
        # Detach from the event the process currently waits on, so the
        # original event's callback no longer resumes us.
        if self._target is not None and self._resume in self._target.callbacks:
            self._target.callbacks.remove(self._resume)
        self._target = None
        interrupt_event.callbacks.append(self._resume)
        self.env._schedule(interrupt_event, priority=0)

    # -- internal -----------------------------------------------------

    def _resume(self, event: Event) -> None:
        env = self.env
        generator = self._generator
        env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    event._defused = True
                    exc = event._value
                    next_event = generator.throw(exc)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self._state = _TRIGGERED
                seq = env._seq
                env._seq = seq + 1
                heappush(env._queue, (env._now, 1, seq, self))
                break
            except Exception as exc:
                # KeyboardInterrupt / SystemExit are not the process's
                # outcome: they leave run() directly.
                self._ok = False
                self._value = exc
                self._state = _TRIGGERED
                seq = env._seq
                env._seq = seq + 1
                heappush(env._queue, (env._now, 1, seq, self))
                break

            if type(next_event) is Timeout or isinstance(next_event, Event):
                if next_event.env is not env:
                    raise SimulationError("cannot wait on an event from another environment")

                if next_event._state == _PROCESSED:
                    # Already happened: resume immediately with its value.
                    event = next_event
                    continue

                next_event.callbacks.append(self._resume)
                self._target = next_event
                break

            exc = SimulationError(
                f"process yielded a non-event: {next_event!r}"
            )
            event = Event(env)
            event._ok = False
            event._value = exc
            event._defused = True

        env._active_process = None


class _Condition(Event):
    """Base for AllOf/AnyOf composite events.

    Duplicate events (by identity) count once: historically a
    duplicated constituent that was still pending — or ``_TRIGGERED``
    but not yet ``_PROCESSED`` — at construction registered one callback
    per occurrence, so a single firing decremented the wait count
    multiple times.  Deduplicating keeps the semantics uniform across
    all lifecycle states: ``AllOf([e, e])`` waits for ``e`` exactly
    once, matching the value dict (which can only carry ``e`` once).
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env)
        unique: list[Event] = []
        seen: set[int] = set()
        for evt in events:
            if evt.env is not env:
                raise SimulationError("all events must share one environment")
            if id(evt) in seen:
                continue
            seen.add(id(evt))
            unique.append(evt)
        self._events = unique
        self._remaining = len(unique)
        if not unique:
            self.succeed({})
            return
        for evt in unique:
            if evt._state == _PROCESSED:
                self._check(evt)
            else:
                evt.callbacks.append(self._check)

    def _collect(self) -> dict:
        return {
            evt: evt._value
            for evt in self._events
            if evt._state == _PROCESSED and evt._ok
        }

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every constituent event has fired.

    The value is a dict mapping each event to its value.  Fails as soon
    as any constituent fails.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        self.succeed(self._collect())


class Environment:
    """The simulation environment: virtual clock plus event queue."""

    __slots__ = ("_now", "_queue", "_seq", "_active_process")

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event | _Call]] = []
        self._seq = 0
        self._active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- factories ----------------------------------------------------

    def event(self) -> Event:
        """Create a new pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator) -> Process:
        """Start running ``generator`` as a simulation process."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any of ``events`` has fired."""
        return AnyOf(self, events)

    def call_later(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Call ``fn(*args)`` ``delay`` seconds of virtual time from now.

        One heap entry, ordered and counted like any event, with no
        event object to wait on: the entry is the call.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        call = _Call()
        call.fn = fn
        call.args = args
        call.callbacks = _FIRE
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, 1, seq, call))

    # -- scheduling and execution --------------------------------------

    @property
    def events_scheduled(self) -> int:
        """Heap entries (events and calls) scheduled so far."""
        return self._seq

    def _schedule(self, event: Event, delay: float = 0.0, priority: int = 1) -> None:
        seq = self._seq
        self._seq = seq + 1
        heappush(self._queue, (self._now + delay, priority, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process the single next event."""
        queue = self._queue
        if not queue:
            raise SimulationError("no more events")
        when, _priority, _seq, event = heappop(queue)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        callbacks = event.callbacks
        event.callbacks = []
        event._state = _PROCESSED
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # An un-waited-for event failed; surface the error loudly.
            raise event._value

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a time
        (run up to that virtual time), or an :class:`Event` (run until
        it fires, returning its value).
        """
        stop_event: Optional[Event] = None
        stop_time = float("inf")
        if isinstance(until, Event):
            stop_event = until
        elif until is not None:
            stop_time = float(until)
            if stop_time < self._now:
                raise SimulationError("cannot run until a time in the past")

        # The loop below is step() inlined: everything downstream pumps
        # millions of events through here, so the per-event overhead of
        # a method call and redundant state checks is worth shaving.
        queue = self._queue

        if stop_event is not None:
            # Completion is detected via a callback flag instead of
            # polling the event's state on every iteration.
            stopped: list = []
            if stop_event._state == _PROCESSED:
                stopped.append(stop_event)
            else:
                stop_event.callbacks.append(stopped.append)
            while queue and not stopped:
                when, _priority, _seq, event = heappop(queue)
                self._now = when
                callbacks = event.callbacks
                event.callbacks = []
                event._state = _PROCESSED
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event._value
            if stop_event._state != _PROCESSED:
                raise SimulationError("ran out of events before `until` fired")
            if not stop_event._ok:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value

        while queue:
            if queue[0][0] > stop_time:
                self._now = stop_time
                return None
            when, _priority, _seq, event = heappop(queue)
            self._now = when
            callbacks = event.callbacks
            event.callbacks = []
            event._state = _PROCESSED
            for callback in callbacks:
                callback(event)
            if not event._ok and not event._defused:
                raise event._value

        if stop_time != float("inf"):
            self._now = stop_time
        return None
