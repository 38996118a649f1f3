"""Scheduler skeleton shared by all spatio-temporal sharing systems.

:class:`OnBoardScheduler` implements everything that is *mechanism* rather
than *policy*: the wake-driven scheduler loop on core 0, PR dispatch (inline
single-core or via the dedicated dual-core PR server), the launch gate,
cooperative preemption, slot bookkeeping, statistics, and the hooks used by
the cluster layer (intake control, waiting-app extraction for migration).

Concrete schedulers (FCFS, RR, Nimblock, VersaSlot) provide the
:meth:`OnBoardScheduler.allocate` policy and, where relevant, preemption
and bundling policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, List, Optional, Tuple

from ..apps.application import ApplicationInstance, BundleSpec
from ..config import DEFAULT_PARAMETERS, SystemParameters
from ..fpga.bitstream import Bitstream, SlotKind
from ..fpga.board import FPGABoard
from ..fpga.slots import Slot
from ..sim import Engine, Event, Store, Tracer, NULL_TRACER
from ..sim.events import PENDING
from ..telemetry.bus import TelemetryBus
from ..telemetry.events import (
    ArrivalEvent,
    CompletionEvent,
    MigrationEvent,
    PreemptionEvent,
)
from .runtime import (
    AppRun,
    BLOCK_EPSILON_MS,
    BundleRun,
    Payload,
    TaskRun,
    occupancy_for,
)


@dataclass(slots=True)
class ResponseRecord:
    """Response time of one completed application."""

    inst: ApplicationInstance
    finish_time: float

    @property
    def response_ms(self) -> float:
        return self.finish_time - self.inst.arrival_time


@dataclass(slots=True)
class SchedulerStats:
    """Counters every scheduler maintains; consumed by metrics and D_switch."""

    arrivals: int = 0
    completions: int = 0
    pr_count: int = 0
    pr_blocked: int = 0
    pr_wait_ms: float = 0.0
    launches: int = 0
    launch_blocked: int = 0
    launch_wait_ms: float = 0.0
    preemptions: int = 0
    migrations_out: int = 0
    #: Windowed counters, reset by the contention monitor (D_switch).
    window_pr: int = 0
    window_blocked: int = 0
    responses: List[ResponseRecord] = field(default_factory=list)
    #: Finish time of the latest completion (the makespan, since finishes
    #: are recorded in nondecreasing clock order).
    last_finish_ms: float = 0.0
    #: When False, completions update the counters and telemetry but no
    #: :class:`ResponseRecord` is retained — the O(1)-memory digest path
    #: used by campaign cells that persist digests instead of raw samples.
    retain_responses: bool = True

    def note_pr(self, queue_wait_ms: float, cross_app: bool = True) -> None:
        """Record a completed PR; only *cross-application* waits count as
        blocking (an app queueing behind its own preloads is pipeline
        fill, not the contention of Fig. 2)."""
        self.pr_count += 1
        self.window_pr += 1
        self.pr_wait_ms += queue_wait_ms
        if queue_wait_ms > BLOCK_EPSILON_MS and cross_app:
            self.pr_blocked += 1
            self.window_blocked += 1

    def note_completion(self, inst: ApplicationInstance, finish_time: float) -> None:
        """Record one application completion (the only completion path)."""
        self.completions += 1
        self.last_finish_ms = finish_time
        if self.retain_responses:
            self.responses.append(ResponseRecord(inst, finish_time))

    def reset_window(self) -> Tuple[int, int]:
        """Return and clear the (PR, blocked) window counters."""
        window = (self.window_pr, self.window_blocked)
        self.window_pr = 0
        self.window_blocked = 0
        return window

    def response_times_ms(self) -> List[float]:
        return [record.response_ms for record in self.responses]


@dataclass(slots=True)
class PRPlan:
    """A planned partial reconfiguration, queued for the PCAP."""

    app_run: AppRun
    payload: Payload
    slot: Slot
    bitstream: Bitstream
    posted_at: float
    serial_bundle: bool = False
    #: Will this load queue behind another application's load?
    cross_app: bool = False


class OnBoardScheduler:
    """Base class for all slot-based (spatio-temporal) schedulers."""

    __slots__ = (
        "board", "engine", "params", "dual_core", "preemption",
        "preemption_quantum_ms", "tracer", "stats", "c_wait", "s_big",
        "s_little", "apps", "live_apps", "intake_open", "_wake_pending",
        "_wake_event", "_pr_inflight", "_inflight_app", "_last_preempt_ms",
        "candidate_listeners", "finish_listeners", "pr_queue", "_core",
        "_launch_overhead_ms", "_action_ms", "big_total", "little_total",
        "telemetry",
    )

    #: Human-readable system name, overridden by subclasses.
    name = "abstract"

    #: Pipeline-aware systems overlap batch items across slots; naive
    #: systems (FCFS, RR) only start a stage after its upstream batch.
    item_pipelining = True

    #: Granularity of cross-slot streaming: 1 = per-item credits
    #: (pipeline-aware systems); naive systems double-buffer coarse chunks
    #: through DDR, so a stage only sees upstream data chunk by chunk.
    pipeline_chunk_items = 1

    def __init__(
        self,
        board: FPGABoard,
        params: Optional[SystemParameters] = None,
        dual_core: bool = False,
        preemption: bool = False,
        preemption_quantum_ms: float = 400.0,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.board = board
        self.engine: Engine = board.engine
        # ``SystemParameters`` is frozen, so sharing the module default is
        # safe; resolving ``None`` here (instead of a module-level default
        # argument) keeps one run's override set from ever aliasing into
        # another's signature.
        self.params = params if params is not None else DEFAULT_PARAMETERS
        self.dual_core = dual_core
        self.preemption = preemption
        self.preemption_quantum_ms = preemption_quantum_ms
        self.tracer = tracer
        self.stats = SchedulerStats()
        # Policy state (names follow the paper's Algorithm 1).
        self.c_wait: List[AppRun] = []
        self.s_big: List[AppRun] = []
        self.s_little: List[AppRun] = []
        #: Every app run submitted here, finished ones included, in
        #: arrival order; an app extracted for live migration leaves it.
        self.apps: List[AppRun] = []
        #: The unfinished subset of ``apps``, in the same order: the
        #: runnable queue every scheduler pass walks.  ``submit``,
        #: ``_finish_app`` and ``extract_waiting_apps`` maintain it.
        self.live_apps: List[AppRun] = []
        self.intake_open = True
        self._wake_pending = False
        self._wake_event: Optional[Event] = None
        self._pr_inflight = 0
        self._inflight_app: Optional[AppRun] = None
        self._last_preempt_ms = -1e12
        #: Fired by the cluster layer on submit/finish (candidate updates).
        self.candidate_listeners: List[Callable[["OnBoardScheduler"], None]] = []
        self.finish_listeners: List[Callable[["OnBoardScheduler", AppRun], None]] = []
        self.pr_queue: Store = Store(self.engine, name=f"{board.name}-pr")
        #: Telemetry bus, attached by ``simulate_run(..., telemetry=...)``
        #: (or directly); ``None`` keeps every emission site free.
        self.telemetry: Optional[TelemetryBus] = None
        # Hot-path caches: the scheduler core and the two per-launch delay
        # parameters are immutable for the scheduler's lifetime, and the
        # launch gate runs once per batch item.
        self._core = board.ps.scheduler_core
        self._launch_overhead_ms = self.params.launch_overhead_ms
        self._action_ms = self.params.scheduler_action_ms
        #: Slot-kind capacities (fixed per board; queried every pass).
        self.big_total = board.big_slot_count
        self.little_total = board.little_slot_count
        self.engine.process(self._scheduler_loop())
        if self.dual_core:
            self.engine.process(self._pr_server_loop())

    # ------------------------------------------------------------------
    # Public interface (workload driver / cluster layer)
    # ------------------------------------------------------------------
    def submit(self, inst: ApplicationInstance) -> AppRun:
        """Accept a newly arrived application."""
        if not self.intake_open:
            raise RuntimeError(f"{self.board.name} intake is closed (migrating)")
        app_run = AppRun(self, inst)
        self.apps.append(app_run)
        self.live_apps.append(app_run)
        self.c_wait.append(app_run)
        self.stats.arrivals += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.emit(
                ArrivalEvent(self.engine.now, inst.name, inst.app_id, inst.batch_size)
            )
        if self.tracer.enabled:
            self.tracer.emit(self.engine.now, "submit", app=inst.name, batch=inst.batch_size)
        self._notify_candidates()
        self.kick()
        return app_run

    def active_apps(self) -> List[AppRun]:
        """Applications submitted here and not yet finished or migrated."""
        return list(self.live_apps)

    @property
    def is_drained(self) -> bool:
        """True when no submitted application remains unfinished."""
        return not self.live_apps

    def close_intake(self) -> None:
        """Stop accepting new applications (cross-board switching)."""
        self.intake_open = False

    def open_intake(self) -> None:
        self.intake_open = True

    def extract_waiting_apps(self) -> List[ApplicationInstance]:
        """Remove and return apps that have not started executing.

        Used by live migration: apps whose PR never began can move to the
        new board wholesale; started apps drain on this board (the paper
        lets ongoing tasks run to completion to avoid bitstream reloads).
        """
        movable = [
            app
            for app in self.live_apps
            if not app.started and not app.pending_pr and not app.loaded
        ]
        telemetry = self.telemetry
        for app in movable:
            self.apps.remove(app)
            self.live_apps.remove(app)
            for queue in (self.c_wait, self.s_big, self.s_little):
                if app in queue:
                    queue.remove(app)
            self.stats.migrations_out += 1
            if telemetry is not None:
                telemetry.emit(
                    MigrationEvent(self.engine.now, app.inst.name, app.inst.app_id)
                )
        if movable:
            self._notify_candidates()
        return [app.inst for app in movable]

    def kick(self) -> None:
        """Request a scheduler pass (idempotent within a time step)."""
        self._wake_pending = True
        event = self._wake_event
        if event is not None and event._value is PENDING:  # not yet triggered
            event.succeed()

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def allocate(self) -> None:
        """Update ``alloc_big``/``alloc_little`` of live apps (policy)."""
        raise NotImplementedError

    def choose_serial_bundle(self, app_run: AppRun, bundle: BundleSpec) -> bool:
        """Pick the bundle execution mode; overridden by VersaSlot."""
        return False

    def maybe_preempt(self) -> None:
        """Preemption policy; default reclaims Little slots for waiters."""
        if not self.preemption or not self.c_wait:
            return
        self.preempt_little_for_waiters()

    # ------------------------------------------------------------------
    # Shared preemption helper
    # ------------------------------------------------------------------
    def preempt_little_for_waiters(self) -> None:
        """Reclaim one Little slot when arrivals are starved.

        Mirrors Nimblock's preemption: when applications wait and no Little
        slot is idle, the app holding the most Little slots vacates its
        highest-index task at the next item boundary.  The lowest loaded
        index is never preempted, so every app keeps making progress and
        the system stays deadlock-free.  A quantum bounds thrashing.
        """
        if not self.c_wait:
            return
        # Guard order is cheapest-first (all three are pure checks): the
        # quantum comparison costs two attribute reads, the idle-slot
        # probe walks the Little slots.
        if self.engine.now - self._last_preempt_ms < self.preemption_quantum_ms:
            return
        if self.board.idle_slot(SlotKind.LITTLE) is not None:
            return
        # max() over (used_little, app_id) without the tuple-key lambda;
        # this runs on every contended pass.
        victim_app = None
        best_used = 2  # only apps holding more than one Little slot
        best_id = -1
        for app in self.s_little:
            used = app.used_little
            if used < best_used:
                continue
            app_id = app.inst.app_id
            if used > best_used or app_id > best_id:
                victim_app = app
                best_used = used
                best_id = app_id
        if victim_app is None:
            return
        runs = [
            run
            for run in victim_app.loaded.values()
            if isinstance(run, TaskRun) and not run.preempt_requested
        ]
        if len(runs) < 2:
            return
        victim_run = runs[0]
        for run in runs:
            if run.task.index > victim_run.task.index:
                victim_run = run
        victim_run.request_preempt()
        self._last_preempt_ms = self.engine.now
        self.tracer.emit(
            self.engine.now,
            "preempt",
            app=victim_app.inst.name,
            task=victim_run.task.name,
        )

    # ------------------------------------------------------------------
    # The scheduler loop (core 0)
    # ------------------------------------------------------------------
    def _scheduler_loop(self) -> Generator:
        while True:
            if not self._wake_pending:
                self._wake_event = self.engine.event()
                yield self._wake_event
                self._wake_event = None
            self._wake_pending = False
            yield from self._pass()

    def _pass(self) -> Generator:
        core = self._core
        request = core.try_acquire()
        if request is not None:
            yield request
        yield self._action_ms
        core.release()
        self.maybe_preempt()
        self.allocate()
        plans = self.plan_dispatch()
        self._mark_cross_app(plans)
        if self.dual_core:
            for plan in plans:
                self.pr_queue.put(plan)
        else:
            for plan in plans:
                yield from self._inline_pr(plan)

    def _inline_pr(self, plan: PRPlan) -> Generator:
        """Single-core PR: the scheduler core is suspended during the load."""
        core = self._core
        request = core.try_acquire()
        if request is not None:
            yield request
        self._pr_inflight += 1
        self._inflight_app = plan.app_run
        try:
            yield from self.board.pcap.load(plan.bitstream)
        finally:
            self._pr_inflight -= 1
            self._inflight_app = None
            core.release()
        self._complete_pr(plan)

    def _pr_server_loop(self) -> Generator:
        """Dedicated PR server on core 1 (VersaSlot's dual-core design)."""
        core = self.board.ps.pr_core(dual_core=True)
        while True:
            plan = yield self.pr_queue.get()
            request = core.try_acquire()
            if request is not None:
                yield request
            self._pr_inflight += 1
            self._inflight_app = plan.app_run
            try:
                yield from self.board.pcap.load(plan.bitstream)
            finally:
                self._pr_inflight -= 1
                self._inflight_app = None
                core.release()
            self._complete_pr(plan)

    def _mark_cross_app(self, plans: List[PRPlan]) -> None:
        """Flag plans that will queue behind another application's PR."""
        if not plans:
            return
        queued = self.pr_queue._items  # live deque; items() would copy
        for index, plan in enumerate(plans):
            plan.cross_app = (
                (self._inflight_app is not None and self._inflight_app is not plan.app_run)
                or any(q.app_run is not plan.app_run for q in queued)
                or any(p.app_run is not plan.app_run for p in plans[:index])
            )

    # ------------------------------------------------------------------
    # Dispatch machinery
    # ------------------------------------------------------------------
    def dispatch_order(self) -> List[AppRun]:
        """Apps considered for PR dispatch, oldest arrival first.

        This is the live list itself, not a copy: callers iterate it and
        must not mutate it.
        """
        return self.live_apps

    def plan_dispatch(self) -> List[PRPlan]:
        """Turn allocations into concrete PR plans against idle slots."""
        plans: List[PRPlan] = []
        for app in self.dispatch_order():
            # An app without headroom plans nothing; a Little-bound one
            # may still need a self-rotation, which needs a loaded run.
            if app.in_big:
                if app.used_big < app.alloc_big:
                    self._plan_for_kind(app, SlotKind.BIG, plans)
            elif app.used_little < app.alloc_little:
                self._plan_for_kind(app, SlotKind.LITTLE, plans)
            elif app.loaded:
                self._rotate_for_reload(app)
        return plans

    def _plan_for_kind(
        self, app: AppRun, kind: SlotKind, plans: List[PRPlan]
    ) -> None:
        """Append ``app``'s plans for slots of ``kind`` to ``plans``."""
        while True:
            # Only the head of the eligibility order is ever dispatched,
            # so probe it directly instead of materializing the list.
            if kind is SlotKind.BIG:
                if app.used_big >= app.alloc_big:
                    break
                payload: Optional[Payload] = app.first_big_payload()
            else:
                if app.used_little >= app.alloc_little:
                    self._rotate_for_reload(app)
                    break
                payload = app.first_little_payload()
            if payload is None:
                break
            slot = self.board.idle_slot(kind)
            if slot is None:
                break
            plans.append(self._make_plan(app, payload, slot))

    def _rotate_for_reload(self, app: AppRun) -> None:
        """Self-rotation: displace the highest stage for a missing lower one.

        If a preempted pipeline stage must be reloaded but the app has no
        allocation headroom (``used == alloc``), every loaded downstream
        stage is starved on the missing one.  Vacating the highest-index
        run makes room; the dispatch guard then reloads the missing stage
        first.  Without this, the app livelocks until the board drains.
        """
        highest: Optional[TaskRun] = None
        for run in app.loaded.values():
            if isinstance(run, TaskRun):
                if run.preempt_requested:
                    return  # a rotation is already in flight
                if highest is None or run.task.index > highest.task.index:
                    highest = run
        if highest is None:
            return
        head = app.first_little_payload()
        if head is not None and highest.task.index > head.index:
            highest.request_preempt()

    def _make_plan(self, app: AppRun, payload: Payload, slot: Slot) -> PRPlan:
        slot.begin_reconfiguration()
        app.pending_pr.add(payload.name)
        app.started = True
        serial = False
        if isinstance(payload, BundleSpec):
            app.used_big += 1
            serial = self.choose_serial_bundle(app, payload)
        else:
            app.used_little += 1
        bitstream = self.board.sd_card.register(payload.name, slot.kind)
        if self.tracer.enabled:
            self.tracer.emit(
                self.engine.now, "pr_plan", app=app.inst.name, payload=payload.name,
                slot=slot.name,
            )
        return PRPlan(
            app_run=app,
            payload=payload,
            slot=slot,
            bitstream=bitstream,
            posted_at=self.engine.now,
            serial_bundle=serial,
        )

    def _complete_pr(self, plan: PRPlan) -> None:
        transfer = plan.bitstream.load_time_ms(self.params)
        queue_wait = self.engine.now - plan.posted_at - transfer
        self.stats.note_pr(max(0.0, queue_wait), cross_app=plan.cross_app)
        app = plan.app_run
        plan.slot.complete_reconfiguration(occupancy_for(app, plan.payload, plan.slot))
        app.pending_pr.discard(plan.payload.name)
        if isinstance(plan.payload, BundleSpec):
            run: object = BundleRun(self, app, plan.payload, plan.slot, plan.serial_bundle)
        else:
            run = TaskRun(self, app, plan.payload, plan.slot)
        app.loaded[plan.payload.name] = run
        if self.tracer.enabled:
            self.tracer.emit(
                self.engine.now, "pr_done", app=app.inst.name, payload=plan.payload.name,
                wait_ms=max(0.0, queue_wait),
            )
        self.kick()

    # ------------------------------------------------------------------
    # Execution-side callbacks (task/bundle runs)
    # ------------------------------------------------------------------
    def on_run_finished(self, run, preempted: bool) -> None:
        """A task/bundle vacated its slot (batch done or preempted)."""
        app: AppRun = run.app_run
        run.slot.release()
        app.loaded.pop(run.payload_name, None)
        if isinstance(run, BundleRun):
            app.used_big -= 1
        else:
            app.used_little -= 1
        if preempted:
            self.stats.preemptions += 1
            telemetry = self.telemetry
            if telemetry is not None:
                telemetry.emit(
                    PreemptionEvent(self.engine.now, app.inst.name, run.payload_name)
                )
        if app.all_done and not app.finished:
            self._finish_app(app)
        self.kick()

    def _finish_app(self, app: AppRun) -> None:
        app.finished = True
        now = self.engine.now
        app.finish_time = now
        self.live_apps.remove(app)
        for queue in (self.c_wait, self.s_big, self.s_little):
            if app in queue:
                queue.remove(app)
        self.stats.note_completion(app.inst, now)
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.emit(
                CompletionEvent(
                    now, app.inst.name, app.inst.app_id,
                    app.inst.arrival_time, now - app.inst.arrival_time,
                )
            )
        self.tracer.emit(
            self.engine.now, "finish", app=app.inst.name,
            response_ms=self.engine.now - app.inst.arrival_time,
        )
        for listener in self.finish_listeners:
            listener(self, app)
        self._notify_candidates()

    def _notify_candidates(self) -> None:
        for listener in self.candidate_listeners:
            listener(self)

    # ------------------------------------------------------------------
    # Capacity queries shared by allocation policies
    # ------------------------------------------------------------------
    def committed_little(self) -> int:
        """Little slots currently committed (loaded or reconfiguring)."""
        total = 0
        for app in self.live_apps:
            total += app.used_little
        return total

    def committed_big(self) -> int:
        """Big slots currently committed (loaded or reconfiguring)."""
        total = 0
        for app in self.live_apps:
            total += app.used_big
        return total

    def __repr__(self) -> str:
        return f"<{type(self).__name__} on {self.board.name}>"
