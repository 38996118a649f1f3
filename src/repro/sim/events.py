"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic coroutine style: model code is written as
generator functions that ``yield`` events; the engine resumes a generator
when the event it waits on fires.  Three event flavours cover everything the
VersaSlot models need:

* :class:`Event` — a one-shot signal that can succeed with a value or fail
  with an exception.
* :class:`Timeout` — an event that fires after a simulated delay.
* :class:`Process` — a running generator; it is itself an event that fires
  when the generator returns, so processes can wait on each other.

:class:`AllOf` / :class:`AnyOf` compose events, and
:meth:`Process.interrupt` injects an :class:`Interrupt` exception into a
waiting process (used for preemption and live migration).

Everything here is hot-path code: a figure campaign dispatches millions of
events, so the classes use ``__slots__`` (no per-instance dict), the
constructors of the high-volume events are flattened (no ``super()``
chains), and a waiting process registers itself on the event's
``_fast_process`` slot instead of allocating into the callback list — the
engine resumes it directly at dispatch (the *fast lane*).  Same-time
ordering is identical to the callback path: the fast process is always the
first waiter, and the engine runs it before any listed callbacks.
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Generator, List, Optional

#: Sentinel marking an event that has not been triggered yet.
PENDING = object()

#: Scheduling priorities; lower sorts earlier among same-time events.
URGENT = 0
NORMAL = 1


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Event:
    """A one-shot condition that processes can wait for.

    Events move through three states: *pending* (just created), *triggered*
    (a value or an exception has been set and the event is queued in the
    engine), and *processed* (the engine has run its callbacks).

    A process waiting on the event sits in ``_fast_process`` when it is the
    first waiter; any further waiters (or non-process listeners such as
    condition events) append to ``callbacks`` as before.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused", "_fast_process")

    def __init__(self, engine: "Engine") -> None:  # noqa: F821
        # ``_defused`` stays unset until a failure path writes it: it is
        # only ever read after a failed dispatch, and those readers use a
        # defaulted getattr.  Skipping the store matters — this runs once
        # per simulated event.
        self.engine = engine
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok = True
        self._fast_process: Optional["Process"] = None

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the engine has dispatched the callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event is still pending."""
        if self._value is PENDING:
            raise RuntimeError("event value is not available yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # Inlined Engine.enqueue(self): succeed() fires per resource grant
        # and per pipeline-item completion.
        engine = self.engine
        engine._seq = seq = engine._seq + 1
        heappush(engine._heap, (engine.now, NORMAL, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        A waiting process receives the exception via ``throw``.  If nothing
        ever waits on a failed event the engine raises the exception at
        dispatch time so errors never pass silently.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self.engine.enqueue(self)
        return self

    def __repr__(self) -> str:
        state = "pending"
        if self.callbacks is None:
            state = "processed"
        elif self._value is not PENDING:
            state = "triggered"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` simulated time units in the future."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Flattened Event.__init__ plus immediate self-scheduling: this
        # constructor runs once per simulated event in every model loop.
        # ``_defused`` stays unset: it is only ever read after ``fail()``,
        # which a born-triggered timeout rejects.
        self.engine = engine
        self.callbacks = []
        self._value = value
        self._ok = True
        self._fast_process = None
        self.delay = delay
        engine._seq = seq = engine._seq + 1
        heappush(engine._heap, (engine.now + delay, NORMAL, seq, self))


class PooledTimeout(Timeout):
    """A :class:`Timeout` from :meth:`Engine.sleep`'s free list.

    The subclass *is* the pool membership flag: the engine recycles
    instances after a fast-lane dispatch with no other listeners, without
    a per-instance attribute on the plain :class:`Timeout` hot path.
    """

    __slots__ = ()


class Initialize(Event):
    """Internal event that starts a freshly created process."""

    __slots__ = ()

    def __init__(self, engine: "Engine", process: "Process") -> None:  # noqa: F821
        self.engine = engine
        self.callbacks = []
        self._value = None
        self._ok = True
        # Start-up is just the first fast-lane resume of the process.
        self._fast_process = process
        engine._seq = seq = engine._seq + 1
        heappush(engine._heap, (engine.now, URGENT, seq, self))


class Process(Event):
    """A running generator coroutine.

    The generator yields :class:`Event` instances.  When a yielded event
    fires, the generator is resumed with the event's value (or the event's
    exception is thrown into it).  The process itself is an event that
    succeeds with the generator's return value, so ``yield other_process``
    waits for completion.
    """

    __slots__ = ("_generator", "_send", "_throw", "_target")

    def __init__(self, engine: "Engine", generator: Generator) -> None:  # noqa: F821
        if not hasattr(generator, "send"):
            raise TypeError(f"{generator!r} is not a generator")
        self.engine = engine
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._fast_process = None
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self._target: Optional[Event] = None
        Initialize(engine, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process.

        The process is detached from whatever event it currently waits on;
        that event stays valid and may still fire for other waiters.
        Interrupting a finished process is an error.
        """
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        target = self._target
        if target is None:
            raise RuntimeError(f"{self!r} is not yet waiting and cannot be interrupted")
        event = Event(self.engine)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        if target._fast_process is self:
            target._fast_process = None
        elif target.callbacks is not None and self._resume in target.callbacks:
            target.callbacks.remove(self._resume)
        self._target = None
        event._fast_process = self
        self.engine.enqueue(event, priority=URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        send = self._send
        while True:
            try:
                if event._ok:
                    target = send(event._value)
                else:
                    event._defused = True
                    target = self._throw(event._value)
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                self.engine.enqueue(self)
                return
            except BaseException as error:  # noqa: BLE001 - forwarded to waiters
                self._ok = False
                self._value = error
                self.engine.enqueue(self)
                return
            if isinstance(target, Event):
                callbacks = target.callbacks
                if callbacks is None:
                    # Already dispatched: resume immediately with its outcome.
                    event = target
                    continue
                if target._fast_process is None and not callbacks:
                    # First waiter: take the fast lane — the engine resumes
                    # this process directly, no callback-list traffic.
                    target._fast_process = self
                else:
                    callbacks.append(self._resume)
                self._target = target
                return
            cls = type(target)
            if (cls is float or cls is int) and target >= 0:
                # Bare-delay shorthand: ``yield 3.5`` schedules a pooled
                # sleep with this process on the fast lane — the cheapest
                # way for model loops to advance simulated time.
                timeout = self.engine.sleep(target)
                timeout._fast_process = self
                self._target = timeout
                return
            if cls is float or cls is int:
                error: BaseException = RuntimeError(
                    f"process yielded a negative delay: {target!r}"
                )
            else:
                error = RuntimeError(f"process yielded a non-event: {target!r}")
            self._generator.close()
            self._ok = False
            self._value = error
            self.engine.enqueue(self)
            return


class ConditionEvent(Event):
    """Base for events composed of several child events."""

    __slots__ = ("events",)

    def __init__(self, engine: "Engine", events: List[Event]) -> None:  # noqa: F821
        super().__init__(engine)
        self.events = list(events)
        for child in self.events:
            if child.engine is not engine:
                raise ValueError("cannot mix events from different engines")


class AllOf(ConditionEvent):
    """Fires when all child events have fired; value is the list of values.

    Fails fast with the first child failure.  ``_remaining`` counts the
    children whose dispatch is still outstanding, so each completion is
    O(1) — no rescan of the child list.
    """

    __slots__ = ("_remaining",)

    def __init__(self, engine: "Engine", events: List[Event]) -> None:  # noqa: F821
        super().__init__(engine, events)
        remaining = 0
        for child in self.events:
            if child.callbacks is None:  # already dispatched
                if not child._ok:
                    child._defused = True
                    self._remaining = 0
                    self.fail(child._value)
                    return
            else:
                remaining += 1
                child.callbacks.append(self._collect)
        self._remaining = remaining
        if remaining == 0 and self._value is PENDING:
            self.succeed([child._value for child in self.events])

    def _collect(self, child: Event) -> None:
        if self._value is not PENDING:
            return
        if not child._ok:
            child._defused = True
            self.fail(child._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c._value for c in self.events])


class AnyOf(ConditionEvent):
    """Fires when the first child event fires; value is that child's value."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: List[Event]) -> None:  # noqa: F821
        super().__init__(engine, events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")
        done = next((c for c in self.events if c.callbacks is None), None)
        if done is not None:
            self._collect(done)
        else:
            for child in self.events:
                child.callbacks.append(self._collect)

    def _collect(self, child: Event) -> None:
        if self._value is not PENDING:
            return
        if child._ok:
            self.succeed(child._value)
        else:
            child._defused = True
            self.fail(child._value)
