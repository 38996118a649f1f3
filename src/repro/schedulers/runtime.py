"""On-board runtime state: application runs, task runs and bundle runs.

This module holds the execution machinery shared by every spatio-temporal
scheduler (FCFS, RR, Nimblock, VersaSlot):

* :class:`AppRun` — per-application bookkeeping: item-level completion
  state, the pipeline dependency events, slot allocation and binding.
* :class:`TaskRun` — one task loaded in a Little slot; a process that walks
  the batch item by item, honouring the cross-slot pipeline dependency and
  the launch gate (every item launch needs the scheduler CPU core — the
  coupling behind the paper's *task execution blocking* problem).
* :class:`BundleRun` — one 3-in-1 task loaded in a Big slot, executing its
  three member tasks in parallel (internal pipeline) or serial mode.

Preemption is cooperative at batch-item boundaries, matching the paper:
the scheduler raises a flag and the run exits after the current item; its
progress persists in the :class:`AppRun` so a later reload resumes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Generator, List, Optional, Tuple, Union

from ..apps.application import BUNDLE_SIZE, ApplicationInstance, BundleSpec, TaskSpec
from ..fpga.resvec import ResourceVector
from ..fpga.slots import Slot, SlotOccupancy
from ..sim import Event, Interrupt
from ..sim.events import PENDING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .base import OnBoardScheduler

#: A loadable payload: a single task (Little slot) or a bundle (Big slot).
Payload = Union[TaskSpec, BundleSpec]

#: Numeric tolerance when deciding whether a wait counts as blocking.
#: Defined here (the bottom of the scheduler import graph) and re-exported
#: by ``schedulers.base``; the inlined launch gates below apply it.
BLOCK_EPSILON_MS = 1e-6


class AppRun:
    """Runtime state of one application on one board."""

    __slots__ = (
        "scheduler", "inst", "spec", "batch", "done_counts", "_item_events",
        "alloc_big", "alloc_little", "used_big", "used_little", "in_big",
        "started", "pending_pr", "loaded", "finished", "finish_time",
        "_unfinished_tasks", "_bundle_members_left", "_unfinished_bundles",
    )

    def __init__(self, scheduler: "OnBoardScheduler", inst: ApplicationInstance) -> None:
        self.scheduler = scheduler
        self.inst = inst
        self.spec = inst.spec
        self.batch = inst.batch_size
        #: Items completed per task, in strict item order.
        self.done_counts: List[int] = [0] * self.spec.task_count
        #: Tasks whose batch is not yet complete, maintained incrementally
        #: by :meth:`mark_item_done` so allocation policies query progress
        #: in O(1) instead of rescanning ``done_counts``.  The per-bundle
        #: member countdown gives the same O(1) answer for bundles
        #: (Algorithm 1 queries both on every pass).
        self._unfinished_tasks = self.spec.task_count if self.batch > 0 else 0
        if self.spec.bundles and self.batch > 0:
            self._bundle_members_left = [
                len(bundle.task_indices) for bundle in self.spec.bundles
            ]
            self._unfinished_bundles = len(self.spec.bundles)
        else:
            self._bundle_members_left = None
            self._unfinished_bundles = 0
        #: Pipeline waiters, keyed task index -> {item -> event}.  The
        #: nested shape lets the (very hot) completion path probe by int
        #: instead of allocating a key tuple per member per item.
        self._item_events: Dict[int, Dict[int, Event]] = {}
        #: Allocated slots (R_Ai in the paper).
        self.alloc_big = 0
        self.alloc_little = 0
        #: Slots currently committed (loaded or reconfiguring), U_Ai.
        self.used_big = 0
        self.used_little = 0
        #: True once bound to Big slots; such apps finish entirely there.
        self.in_big = False
        #: True once any PR for this app has been issued (isAppStarted).
        self.started = False
        #: Payload names currently being reconfigured.
        self.pending_pr: set = set()
        #: Loaded runs keyed by payload name.
        self.loaded: Dict[str, Union["TaskRun", "BundleRun"]] = {}
        self.finished = False
        self.finish_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Pipeline dependency plumbing
    # ------------------------------------------------------------------
    def item_done(self, task_index: int, item: int) -> bool:
        """True once item ``item`` of task ``task_index`` has completed."""
        return self.done_counts[task_index] > item

    def item_event(self, task_index: int, item: int) -> Event:
        """Event firing when item ``item`` of task ``task_index`` completes."""
        engine = self.scheduler.engine
        if self.done_counts[task_index] > item:
            return Event(engine).succeed()
        task_events = self._item_events.get(task_index)
        if task_events is None:
            task_events = self._item_events[task_index] = {}
        event = task_events.get(item)
        if event is None:
            # Flattened Event(engine): pipeline stages wait on one of
            # these per batch item.
            event = Event.__new__(Event)
            event.engine = engine
            event.callbacks = []
            event._value = PENDING
            event._ok = True
            event._fast_process = None
            task_events[item] = event
        return event

    def mark_item_done(self, task_index: int, item: int) -> None:
        """Record completion of one batch item; items complete in order."""
        expected = self.done_counts[task_index]
        if item != expected:
            raise RuntimeError(
                f"{self.inst.name}: task {task_index} completed item {item}, "
                f"expected {expected}"
            )
        self.done_counts[task_index] = done = expected + 1
        if done == self.batch:
            self._unfinished_tasks -= 1
            left = self._bundle_members_left
            if left is not None:
                # Bundles tile the task list consecutively (validated by
                # the spec), so the bundle index is a plain division.
                bundle_index = task_index // BUNDLE_SIZE
                left[bundle_index] -= 1
                if left[bundle_index] == 0:
                    self._unfinished_bundles -= 1
        if self._item_events:  # skip the dict work when nobody waits
            task_events = self._item_events.get(task_index)
            if task_events:
                event = task_events.pop(item, None)
                if event is not None and not event.triggered:
                    event.succeed()

    def mark_bundle_item_done(self, members: Tuple[int, ...], item: int) -> None:
        """Record one batch item for every member of one bundle at once.

        Equivalent to calling :meth:`mark_item_done` for each member (the
        bundle publishes all members together), folded into a single call
        because it runs once per batch item of every Big-slot run.
        """
        done_counts = self.done_counts
        next_count = item + 1
        for member in members:
            if done_counts[member] != item:
                raise RuntimeError(
                    f"{self.inst.name}: task {member} completed item {item}, "
                    f"expected {done_counts[member]}"
                )
            done_counts[member] = next_count
        if next_count == self.batch:
            self._unfinished_tasks -= len(members)
            left = self._bundle_members_left
            if left is not None:
                bundle_index = members[0] // BUNDLE_SIZE
                left[bundle_index] -= len(members)
                if left[bundle_index] == 0:
                    self._unfinished_bundles -= 1
        item_events = self._item_events
        if item_events:
            for member in members:
                task_events = item_events.get(member)
                if task_events:
                    event = task_events.pop(item, None)
                    if event is not None and not event.triggered:
                        event.succeed()

    # ------------------------------------------------------------------
    # Progress queries used by the allocation/scheduling policies
    # ------------------------------------------------------------------
    @property
    def all_done(self) -> bool:
        return self._unfinished_tasks == 0

    def unfinished_task_count(self) -> int:
        """N_TAi: tasks that still have unfinished items."""
        return self._unfinished_tasks

    def unfinished_bundle_count(self) -> int:
        """Bundles with at least one unfinished member task."""
        return self._unfinished_bundles

    def next_little_payloads(self) -> List[TaskSpec]:
        """Tasks eligible for loading into Little slots, pipeline order.

        A task is eligible when it is incomplete, not loaded and not
        currently being reconfigured.  Order matters: lowest index first
        guarantees the pipeline can always make progress (see the
        deadlock-freedom argument in the tests).

        When a loaded run has a pending preemption, no task *after* it is
        eligible: its slot must go back to the preempted stage first, or
        the app fills its allocation with downstream stages that starve on
        the missing upstream (a livelock observed under Real-time load).
        """
        preempt_floor = None
        for run in self.loaded.values():
            if isinstance(run, TaskRun) and run.preempt_requested:
                index = run.task.index
                if preempt_floor is None or index < preempt_floor:
                    preempt_floor = index
        eligible = []
        batch = self.batch
        done_counts = self.done_counts
        loaded = self.loaded
        pending_pr = self.pending_pr
        for task in self.spec.tasks:
            if preempt_floor is not None and task.index > preempt_floor:
                break
            if done_counts[task.index] >= batch:
                continue
            if task.name in loaded or task.name in pending_pr:
                continue
            eligible.append(task)
        return eligible

    def next_big_payloads(self) -> List[BundleSpec]:
        """Bundles eligible for loading into Big slots, pipeline order."""
        eligible = []
        left = self._bundle_members_left
        loaded = self.loaded
        pending_pr = self.pending_pr
        for bundle_index, bundle in enumerate(self.spec.bundles):
            if left is not None and left[bundle_index] == 0:
                continue
            if bundle.name in loaded or bundle.name in pending_pr:
                continue
            eligible.append(bundle)
        return eligible

    def first_little_payload(self) -> Optional[TaskSpec]:
        """First element of :meth:`next_little_payloads`, without the list.

        The planning loop only ever consumes the head of the eligibility
        list (lowest index first), so an early-exit scan avoids building
        and discarding a list per scheduler pass.  Keep the eligibility
        rules in sync with :meth:`next_little_payloads`.
        """
        preempt_floor = None
        for run in self.loaded.values():
            if isinstance(run, TaskRun) and run.preempt_requested:
                index = run.task.index
                if preempt_floor is None or index < preempt_floor:
                    preempt_floor = index
        batch = self.batch
        done_counts = self.done_counts
        loaded = self.loaded
        pending_pr = self.pending_pr
        for task in self.spec.tasks:
            if preempt_floor is not None and task.index > preempt_floor:
                return None
            if done_counts[task.index] >= batch:
                continue
            if task.name in loaded or task.name in pending_pr:
                continue
            return task
        return None

    def little_payload_count(self) -> int:
        """``len(next_little_payloads())`` without building the list.

        Nimblock's allocator queries demand twice per pass; a counting
        scan keeps that O(tasks) but allocation-free.  Keep the
        eligibility rules in sync with :meth:`next_little_payloads`.
        """
        preempt_floor = None
        for run in self.loaded.values():
            if isinstance(run, TaskRun) and run.preempt_requested:
                index = run.task.index
                if preempt_floor is None or index < preempt_floor:
                    preempt_floor = index
        count = 0
        batch = self.batch
        done_counts = self.done_counts
        loaded = self.loaded
        pending_pr = self.pending_pr
        for task in self.spec.tasks:
            if preempt_floor is not None and task.index > preempt_floor:
                break
            if done_counts[task.index] >= batch:
                continue
            if task.name in loaded or task.name in pending_pr:
                continue
            count += 1
        return count

    def first_big_payload(self) -> Optional[BundleSpec]:
        """First element of :meth:`next_big_payloads`, without the list."""
        left = self._bundle_members_left
        loaded = self.loaded
        pending_pr = self.pending_pr
        for bundle_index, bundle in enumerate(self.spec.bundles):
            if left is not None and left[bundle_index] == 0:
                continue
            if bundle.name in loaded or bundle.name in pending_pr:
                continue
            return bundle
        return None

    def __repr__(self) -> str:
        return (
            f"<AppRun {self.inst.name} done={self.done_counts} "
            f"R=({self.alloc_big},{self.alloc_little}) "
            f"U=({self.used_big},{self.used_little})>"
        )


class TaskRun:
    """A task loaded in a Little slot, executing its batch item by item."""

    __slots__ = ("scheduler", "app_run", "task", "slot", "preempt_requested",
                 "items_this_load", "_waiting_dependency", "process")

    def __init__(self, scheduler: "OnBoardScheduler", app_run: AppRun, task: TaskSpec, slot: Slot) -> None:
        self.scheduler = scheduler
        self.app_run = app_run
        self.task = task
        self.slot = slot
        self.preempt_requested = False
        self.items_this_load = 0
        self._waiting_dependency = False
        self.process = scheduler.engine.process(self._run())

    @property
    def payload_name(self) -> str:
        return self.task.name

    def request_preempt(self) -> None:
        """Ask the run to vacate its slot at the next item boundary.

        A run parked on an upstream dependency event would otherwise hold
        its slot until that event fires — which may be never, if the
        upstream stage itself needs this slot — so dependency waits are
        interrupted immediately.
        """
        self.preempt_requested = True
        if self._waiting_dependency and self.process.is_alive:
            self.process.interrupt("preempted")

    def _run(self) -> Generator:
        app = self.app_run
        scheduler = self.scheduler
        engine = scheduler.engine
        k = self.task.index
        batch = app.batch
        done_counts = app.done_counts
        # Loop invariants hoisted out of the per-item path: the item time
        # (execution plus the per-item AXI/DDR hop into this slot), the
        # pipelining granularity, and the dependency base.
        item_ms = self.task.exec_time_ms + scheduler.params.inter_slot_transfer_ms
        chunk = scheduler.pipeline_chunk_items if scheduler.item_pipelining else None
        item_level = chunk == 1
        last_item = batch - 1
        item_event = app.item_event
        mark_item_done = app.mark_item_done
        core = scheduler._core
        try_acquire = core.try_acquire
        release = core.release
        stats = scheduler.stats
        pr_items = scheduler.pr_queue._items
        launch_overhead = scheduler._launch_overhead_ms
        # Telemetry fast lane: when no sink wants launch events the local
        # is None and the per-item cost is a single identity test.
        telemetry = scheduler.telemetry
        if telemetry is not None and not telemetry.wants_launch:
            telemetry = None
        app_id = app.inst.app_id
        while done_counts[k] < batch:
            if self.preempt_requested:
                break
            item = done_counts[k]
            # Cross-slot dependency: item-level pipeline for pipeline-aware
            # systems; naive ones stream coarser chunks (or whole batches),
            # so their slots idle while upstream stages drain — the
            # under-utilization the paper attributes to uniform sharing.
            if item_level:
                upstream_item = item
            elif chunk is None:
                upstream_item = last_item
            else:
                upstream_item = min(last_item, (item // chunk + 1) * chunk - 1)
            if k > 0 and done_counts[k - 1] <= upstream_item:
                self._waiting_dependency = True
                try:
                    yield item_event(k - 1, upstream_item)
                except Interrupt:
                    break
                finally:
                    self._waiting_dependency = False
                continue  # re-check preemption after a potentially long wait
            # The launch gate, run before every batch-item launch: the
            # launch needs the scheduler core, so on single-core systems
            # a PR in flight stalls it — the task execution blocking
            # problem.  Blocking is attributed to PR contention only when
            # the in-flight or queued PR belongs to a *different*
            # application (Fig. 2 semantics).  The uncontended case
            # grants in place — no request object, no dispatch
            # round-trip, zero wait — and only the contended branch pays
            # for the PR-busy scan.  It is inlined (no generator frame per
            # item); BundleRun's two run loops carry copies of this
            # block: keep the three in sync.
            request = try_acquire()
            if request is None:
                wait = 0.0
                blocked = False
            else:
                started = engine.now
                busy_app = scheduler._inflight_app
                pr_busy = busy_app is not None and busy_app is not app
                if not pr_busy and pr_items:
                    pr_busy = any(q.app_run is not app for q in pr_items)
                yield request
                wait = engine.now - started
                blocked = wait > BLOCK_EPSILON_MS and pr_busy
            stats.launches += 1
            stats.launch_wait_ms += wait
            if blocked:
                stats.launch_blocked += 1
                stats.window_blocked += 1
            if telemetry is not None:
                telemetry.emit_launch(engine.now, app_id, wait, blocked)
            try:
                yield launch_overhead
            finally:
                release()
            # ``sleep`` recycles the timeout object: the batch loop runs
            # allocation-free in steady state.
            yield item_ms
            mark_item_done(k, item)
            self.items_this_load += 1
        self.scheduler.on_run_finished(self, preempted=self.preempt_requested)
        return self.items_this_load


class BundleRun:
    """A 3-in-1 bundle loaded in a Big slot.

    Execution mode is chosen at bundling time (Algorithm 2's online
    bundling) via the paper's criterion: serial when
    ``Tmax * (B + 2) > sum(T) * B``, else parallel.

    * **Parallel** — the three member tasks form an internal pipeline; the
      first item pays the fill time ``sum(T)``, each further item completes
      every ``Tmax``.  All three member tasks' items are published when the
      item leaves the bundle (downstream only consumes the last member).
    * **Serial** — members run one full batch after another.
    """

    __slots__ = ("scheduler", "app_run", "bundle", "slot", "serial",
                 "preempt_requested", "process")

    def __init__(
        self,
        scheduler: "OnBoardScheduler",
        app_run: AppRun,
        bundle: BundleSpec,
        slot: Slot,
        serial: bool,
    ) -> None:
        self.scheduler = scheduler
        self.app_run = app_run
        self.bundle = bundle
        self.slot = slot
        self.serial = serial
        self.preempt_requested = False  # bundles are never preempted
        self.process = scheduler.engine.process(
            self._run_serial() if serial else self._run_parallel()
        )

    @property
    def payload_name(self) -> str:
        return self.bundle.name

    def _upstream_ready(self, item: int) -> Optional[Event]:
        """Dependency of the bundle's first member on the previous bundle."""
        first = self.bundle.task_indices[0]
        if first == 0 or self.app_run.item_done(first - 1, item):
            return None
        return self.app_run.item_event(first - 1, item)

    def _run_parallel(self) -> Generator:
        app = self.app_run
        scheduler = self.scheduler
        engine = scheduler.engine
        # Bundle payloads always come from ``spec.bundles`` (validated at
        # spec construction), so index the frozen time table directly
        # instead of re-validating membership per load.
        times = app.spec._bundle_times[self.bundle.index]
        # Internal stages stream on-chip: the steady-state rate is set by
        # the slowest member alone; the boundary DDR hop is paid once, in
        # the fill, and thereafter overlaps the slowest member.
        hop = scheduler.params.inter_slot_transfer_ms
        fill = sum(times) + hop
        t_max = max(times)
        members = self.bundle.task_indices
        first = members[0]
        done_counts = app.done_counts
        mark_bundle_item_done = app.mark_bundle_item_done
        core = scheduler._core
        try_acquire = core.try_acquire
        release = core.release
        stats = scheduler.stats
        pr_items = scheduler.pr_queue._items
        launch_overhead = scheduler._launch_overhead_ms
        # Telemetry fast lane (see TaskRun._run).
        telemetry = scheduler.telemetry
        if telemetry is not None and not telemetry.wants_launch:
            telemetry = None
        app_id = app.inst.app_id
        start_item = done_counts[first]
        for item in range(start_item, app.batch):
            # Dependency of the bundle's first member on the previous
            # bundle (_upstream_ready, inlined for the per-item path).
            if first > 0 and done_counts[first - 1] <= item:
                yield app.item_event(first - 1, item)
            # Inlined launch gate (keep in sync with TaskRun._run, where
            # it is documented).
            request = try_acquire()
            if request is None:
                wait = 0.0
                blocked = False
            else:
                started = engine.now
                busy_app = scheduler._inflight_app
                pr_busy = busy_app is not None and busy_app is not app
                if not pr_busy and pr_items:
                    pr_busy = any(q.app_run is not app for q in pr_items)
                yield request
                wait = engine.now - started
                blocked = wait > BLOCK_EPSILON_MS and pr_busy
            stats.launches += 1
            stats.launch_wait_ms += wait
            if blocked:
                stats.launch_blocked += 1
                stats.window_blocked += 1
            if telemetry is not None:
                telemetry.emit_launch(engine.now, app_id, wait, blocked)
            try:
                yield launch_overhead
            finally:
                release()
            yield fill if item == start_item else t_max
            mark_bundle_item_done(members, item)
        scheduler.on_run_finished(self, preempted=False)
        return app.batch - start_item

    def _run_serial(self) -> Generator:
        app = self.app_run
        scheduler = self.scheduler
        engine = scheduler.engine
        core = scheduler._core
        try_acquire = core.try_acquire
        release = core.release
        stats = scheduler.stats
        pr_items = scheduler.pr_queue._items
        launch_overhead = scheduler._launch_overhead_ms
        # Telemetry fast lane (see TaskRun._run).
        telemetry = scheduler.telemetry
        if telemetry is not None and not telemetry.wants_launch:
            telemetry = None
        app_id = app.inst.app_id
        completed = 0
        # Serial mode buffers whole batches between members, so each
        # member's items pay the DDR hop like separate slots would.
        hop = scheduler.params.inter_slot_transfer_ms
        first = self.bundle.task_indices[0]
        for member in self.bundle.task_indices:
            exec_ms = app.spec.tasks[member].exec_time_ms + hop
            for item in range(app.done_counts[member], app.batch):
                if member == first:
                    waiting = self._upstream_ready(item)
                    if waiting is not None:
                        yield waiting
                # Inlined launch gate (keep in sync with TaskRun._run,
                # where it is documented).
                request = try_acquire()
                if request is None:
                    wait = 0.0
                    blocked = False
                else:
                    started = engine.now
                    busy_app = scheduler._inflight_app
                    pr_busy = busy_app is not None and busy_app is not app
                    if not pr_busy and pr_items:
                        pr_busy = any(q.app_run is not app for q in pr_items)
                    yield request
                    wait = engine.now - started
                    blocked = wait > BLOCK_EPSILON_MS and pr_busy
                stats.launches += 1
                stats.launch_wait_ms += wait
                if blocked:
                    stats.launch_blocked += 1
                    stats.window_blocked += 1
                if telemetry is not None:
                    telemetry.emit_launch(engine.now, app_id, wait, blocked)
                try:
                    yield launch_overhead
                finally:
                    release()
                yield exec_ms
                app.mark_item_done(member, item)
                completed += 1
        scheduler.on_run_finished(self, preempted=False)
        return completed


def occupancy_for(app_run: AppRun, payload: Payload, slot: Slot) -> SlotOccupancy:
    """Build the slot-occupancy record for a payload about to be installed."""
    if isinstance(payload, BundleSpec):
        # usage_big is a fraction of the Big slot; convert to absolute units.
        usage = ResourceVector(
            payload.usage_big.lut * slot.capacity.lut,
            payload.usage_big.ff * slot.capacity.ff,
        )
    else:
        usage = payload.usage
    return SlotOccupancy(
        payload_name=payload.name,
        app_id=app_run.inst.app_id,
        usage=usage,
    )
