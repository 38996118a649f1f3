"""Shared-resource primitives built on the event kernel.

:class:`Resource` models anything with finite capacity that processes
acquire and release — CPU cores, the PCAP port, DMA channels.  Requests are
granted strictly FIFO, which mirrors the hardware arbiters the paper
describes (the PCAP serializes bitstream loads in arrival order).

:class:`Store` is an unbounded FIFO of items with blocking ``get``; the
VersaSlot PR server consumes reconfiguration requests from one.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, List, Optional

from .engine import Engine
from .events import Event, PENDING


class Request(Event):
    """A pending acquisition of one unit of a :class:`Resource`.

    The request fires when the unit is granted.  A waiter that gives up
    (e.g. a preempted process) must call :meth:`cancel` so the unit is not
    granted to a dead request.

    ``wait_started`` records the enqueue time directly on the request —
    keying a side table by ``id(request)`` would cross-wire wait-time
    accounting when the interpreter reuses object ids after GC.

    ``in_queue`` tracks live membership in the resource's waiting deque:
    abandoning a request clears the flag and leaves the entry in place
    (lazy removal), so a cancel is a pair of O(1) increments instead of an
    O(n) deque scan.
    """

    __slots__ = ("resource", "cancelled", "wait_started", "in_queue")

    def __init__(self, resource: "Resource") -> None:
        engine = resource.engine
        # Flattened Event.__init__: requests are created per batch-item
        # launch, squarely on the hot path.
        self.engine = engine
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._fast_process = None
        self.resource = resource
        self.cancelled = False
        self.in_queue = False
        self.wait_started = engine.now

    def cancel(self) -> None:
        """Withdraw the request; releases the unit if already granted."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.triggered:
            self.resource.release()
        else:
            self.resource._abandon(self)


class Resource:
    """A FIFO resource with integer capacity.

    Usage from a process::

        request = resource.acquire()
        yield request
        try:
            yield engine.timeout(10.0)
        finally:
            resource.release()
    """

    __slots__ = ("engine", "capacity", "name", "_in_use", "_waiting",
                 "_busy_time", "_last_change", "total_grants", "total_wait_time",
                 "total_abandoned", "abandon_misses", "_cancelled_waiting")

    def __init__(self, engine: Engine, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiting: Deque[Request] = deque()
        # Accounting for utilization metrics.
        self._busy_time = 0.0
        self._last_change = engine.now
        self.total_grants = 0
        self.total_wait_time = 0.0
        self.total_abandoned = 0
        self.abandon_misses = 0
        # Lazily-abandoned entries still physically present in _waiting.
        self._cancelled_waiting = 0

    # ------------------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of currently granted units."""
        return self._in_use

    @property
    def available(self) -> int:
        """Number of free units."""
        return self.capacity - self._in_use

    @property
    def queue_length(self) -> int:
        """Number of live requests waiting for a unit.

        Abandoned requests stay in the deque until a release walks past
        them, so subtract the lazy-removal count.
        """
        return len(self._waiting) - self._cancelled_waiting

    def acquire(self) -> Request:
        """Request one unit; the returned event fires when granted."""
        # Inlined Request.__init__ (kept in sync): one call frame instead
        # of two on the per-item launch path.
        engine = self.engine
        request = Request.__new__(Request)
        request.engine = engine
        request.callbacks = []
        request._value = PENDING
        request._ok = True
        request._fast_process = None
        request.resource = self
        request.cancelled = False
        request.wait_started = engine.now
        if self._in_use < self.capacity:
            # Inlined _grant + Event.succeed for the uncontended case (the
            # per-item launch path): zero queue wait, trigger in place.
            now = engine.now
            self._busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            self.total_grants += 1
            request._value = self
            engine._seq = seq = engine._seq + 1
            heappush(engine._heap, (now, 1, seq, request))  # 1 == NORMAL
        else:
            request.in_queue = True
            self._waiting.append(request)
        return request

    def try_acquire(self) -> Optional[Request]:
        """Acquire one unit, granting in place when uncontended.

        Returns ``None`` when a unit was free: the grant is applied
        synchronously (same accounting as :meth:`acquire`) with no Request
        object, no heap push, and no dispatch round-trip — the caller must
        NOT yield and still owns a :meth:`release`.  When the resource is
        busy, returns a queued :class:`Request` the caller must yield on,
        exactly as :meth:`acquire` would.
        """
        if self._in_use < self.capacity:
            now = self.engine.now
            self._busy_time += self._in_use * (now - self._last_change)
            self._last_change = now
            self._in_use += 1
            self.total_grants += 1
            return None
        engine = self.engine
        request = Request.__new__(Request)
        request.engine = engine
        request.callbacks = []
        request._value = PENDING
        request._ok = True
        request._fast_process = None
        request.resource = self
        request.cancelled = False
        request.in_queue = True
        request.wait_started = engine.now
        self._waiting.append(request)
        return request

    def release(self) -> None:
        """Return one unit and grant the oldest live waiter, if any."""
        in_use = self._in_use
        if in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        # Busy-time accounting, inlined here and in _grant: release/grant
        # pairs run per batch-item launch.
        now = self.engine.now
        self._busy_time += in_use * (now - self._last_change)
        self._last_change = now
        self._in_use = in_use - 1
        waiting = self._waiting
        while waiting:
            request = waiting.popleft()
            if request.in_queue:
                request.in_queue = False
                self._grant(request)
                break
            # Lazily-abandoned entry: drop it and fix the live count.
            self._cancelled_waiting -= 1

    def busy_fraction(self, horizon: Optional[float] = None) -> float:
        """Time-weighted mean utilization since creation.

        ``horizon`` defaults to the current simulation time.
        """
        end = self.engine.now if horizon is None else horizon
        if end <= 0:
            return 0.0
        busy = self._busy_time + self._in_use * (end - self._last_change)
        return busy / (end * self.capacity)

    # ------------------------------------------------------------------
    def _grant(self, request: Request) -> None:
        now = self.engine.now
        self._busy_time += self._in_use * (now - self._last_change)
        self._last_change = now
        self._in_use += 1
        self.total_grants += 1
        self.total_wait_time += now - request.wait_started
        request.succeed(self)

    def _abandon(self, request: Request) -> None:
        if request.in_queue:
            # Lazy removal: flag the entry dead and let release() discard
            # it in passing — two O(1) increments instead of an O(n)
            # deque scan on the cancel path.
            request.in_queue = False
            self.total_abandoned += 1
            self._cancelled_waiting += 1
        else:
            # A cancel for a request this resource is no longer holding.
            # cancel() is idempotent and release() only discards requests
            # that were already cancelled, so in a healthy simulation this
            # never fires — count it instead of swallowing it so the
            # invariant layer (and tests) can see the mismatch.
            self.abandon_misses += 1


class Store:
    """An unbounded FIFO of items with blocking ``get``."""

    __slots__ = ("engine", "name", "_items", "_getters", "total_puts")

    def __init__(self, engine: Engine, name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_puts = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Add ``item``; wakes the oldest waiting getter immediately."""
        self.total_puts += 1
        while self._getters:
            getter = self._getters.popleft()
            if not getter.triggered:
                getter.succeed(item)
                return
        self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next item (FIFO)."""
        event = Event(self.engine)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def items(self) -> List[Any]:
        """Snapshot of queued items (oldest first)."""
        return list(self._items)
