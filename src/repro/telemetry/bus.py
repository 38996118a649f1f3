"""The telemetry bus: one typed event stream, fanned out to sinks.

A :class:`TelemetryBus` is attached to a simulation (``simulate_run(...,
telemetry=bus)``) and receives every :class:`~repro.telemetry.events
.TelemetryEvent` the model emits.  Sinks subscribe with an optional kind
filter; the bus pre-computes the fan-out list per kind at attach time so
``emit`` is one dict lookup plus a short loop.

Zero cost when disabled
-----------------------
The hot emission site (the launch gate in ``SlotRun._run``, the one
batch-item loop in ``schedulers.runtime``) hoists ``scheduler.telemetry``
into a local and nulls it out when no attached sink wants launch events —
the steady-state per-item overhead of a disabled bus is a single
``is not None`` test, and no event object is ever constructed.  The same
pattern guards every other emission site (``if telemetry is not None``).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, TYPE_CHECKING

from .events import EVENT_TYPES, LaunchEvent, SlotTransitionEvent, TelemetryEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fpga.board import FPGABoard


class TelemetrySink:
    """Base sink: receives events whose kind passes the filter.

    Subclasses set :attr:`kinds` to an iterable of kind tags to subscribe
    to a subset of the stream (``None`` subscribes to everything) and
    implement :meth:`handle`.  :meth:`close` flushes/releases whatever the
    sink holds; the bus calls it once at the end of a run.

    A sink that only *aggregates* launch events may additionally define
    ``on_launch(time_ms, app_id, wait_ms, blocked)``: when every
    launch-subscribed sink provides it, the bus skips constructing the
    per-item :class:`LaunchEvent` object altogether — the difference
    between a few attribute adds and an allocation on the hottest model
    path.
    """

    __slots__ = ()

    #: Kind tags this sink wants, or ``None`` for the full stream.
    kinds: Optional[Iterable[str]] = None

    def handle(self, event: TelemetryEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class TelemetryBus:
    """Fan a typed event stream out to subscribed sinks."""

    __slots__ = ("_sinks", "_by_kind", "_launch_fast", "wants_launch")

    def __init__(self, sinks: Iterable[TelemetrySink] = ()) -> None:
        self._sinks: List[TelemetrySink] = []
        self._by_kind: Dict[str, List[TelemetrySink]] = {
            kind: [] for kind in EVENT_TYPES
        }
        #: Bound ``on_launch`` fast-path handlers, or None when some
        #: launch sink needs the full event object.
        self._launch_fast: Optional[List] = []
        #: Hoisted by the batch-item loop's launch gate: when False, model
        #: code skips launch emission entirely.
        self.wants_launch = False
        for sink in sinks:
            self.attach(sink)

    @property
    def enabled(self) -> bool:
        """True once any sink is attached."""
        return bool(self._sinks)

    @property
    def sinks(self) -> List[TelemetrySink]:
        return list(self._sinks)

    def attach(self, sink: TelemetrySink) -> TelemetrySink:
        """Subscribe ``sink`` (honouring its ``kinds`` filter)."""
        wanted = sink.kinds
        if wanted is not None:
            unknown = [kind for kind in wanted if kind not in EVENT_TYPES]
            if unknown:
                raise ValueError(
                    f"sink {type(sink).__name__} subscribes to unknown "
                    f"event kind(s) {', '.join(unknown)}; "
                    f"known: {', '.join(EVENT_TYPES)}"
                )
        self._sinks.append(sink)
        for kind, fanout in self._by_kind.items():
            if wanted is None or kind in wanted:
                fanout.append(sink)
        launch_sinks = self._by_kind["launch"]
        self.wants_launch = bool(launch_sinks)
        if all(hasattr(s, "on_launch") for s in launch_sinks):
            self._launch_fast = [s.on_launch for s in launch_sinks]
        else:
            self._launch_fast = None
        return sink

    def wants(self, kind: str) -> bool:
        """Does any attached sink subscribe to ``kind``?"""
        return bool(self._by_kind[kind])

    def emit(self, event: TelemetryEvent) -> None:
        """Deliver one event to every subscribed sink."""
        for sink in self._by_kind[event.kind]:
            sink.handle(event)

    def emit_launch(
        self, time_ms: float, app_id: int, wait_ms: float, blocked: bool
    ) -> None:
        """Hot-path launch emission (one call per batch item).

        Callers gate on :attr:`wants_launch` first; aggregation-only
        configurations take the allocation-free ``on_launch`` fast path,
        and a :class:`LaunchEvent` is only materialized when some sink
        (event log, fingerprint) needs the object itself.
        """
        fast = self._launch_fast
        if fast is not None:
            for handler in fast:
                handler(time_ms, app_id, wait_ms, blocked)
            return
        event = LaunchEvent(time_ms, app_id, wait_ms, blocked)
        for sink in self._by_kind["launch"]:
            sink.handle(event)

    def observe_board(self, board: "FPGABoard") -> None:
        """Subscribe to every slot's state transitions.

        Attach all sinks *before* calling this: the observer is only
        installed when some sink wants slot events, keeping fully
        slot-indifferent configurations free of per-PR overhead.
        """
        fanout = self._by_kind["slot"]
        if not fanout:
            return

        for slot in board.slots:
            # One closure per slot with the name precomputed: ``slot.name``
            # is an f-string build, too costly per transition.
            def observer(slot, occupancy, _name=slot.name, _fanout=fanout) -> None:
                if occupancy is not None:
                    event = SlotTransitionEvent(
                        slot.engine.now, _name, slot.state.value,
                        occupancy.payload_name, occupancy.app_id,
                    )
                else:
                    event = SlotTransitionEvent(
                        slot.engine.now, _name, slot.state.value, "", -1
                    )
                for sink in _fanout:
                    sink.handle(event)

            slot.observers.append(observer)

    def close(self) -> None:
        """Close every attached sink (idempotent)."""
        for sink in self._sinks:
            sink.close()


__all__ = ["TelemetryBus", "TelemetrySink"]
