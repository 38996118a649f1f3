"""Pluggable invariant checkers over kernel and scheduler state.

The checkers encode what must hold *regardless of policy* — properties the
goldens can only sample but a fuzzer can hammer:

* **clock monotonicity** — simulation time never moves backwards across
  dispatches (observed at every slot event and application finish);
* **slot occupancy conservation** — at every stable point, the number of
  non-idle slots of each kind equals the slots the live ``AppRun`` s think
  they have committed (``used_big`` / ``used_little``);
* **incremental counters == recomputed counts** — the O(1) run-state
  maintained by ``schedulers.runtime`` (unfinished tasks/bundles, used
  slots), the scheduler's live-app list and committed-slot totals, and
  the utilization tracker's in-place accumulators must always equal a
  from-scratch recomputation;
* **no orphaned waiters** — when a run ends, no process is still parked on
  a pipeline item event, no PR plan sits in the queue, and the engine heap
  is empty;
* **resource request/release balance** — every acquired core / PCAP unit
  was released (``in_use == 0`` at drain, never outside ``[0, capacity]``);
* **the Big.Little runtime rules** — an application never holds Big and
  Little slots at once (§III-C1), a Big-slot run is never asked to
  preempt, and every loaded 3-in-1 bundle runs in the mode the paper's
  criterion ``Tmax * (B + 2) > sum(T) * B`` picks, recomputed from its
  member tasks.

:class:`InvariantMonitor` attaches the runtime checks to a live
simulation (slot observers + finish listeners) and exposes
:meth:`InvariantMonitor.finalize` for the end-of-run sweep.  All findings
are collected as :class:`Violation` records instead of raising, so the
oracle can report every broken invariant of a run at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..fpga.bitstream import SlotKind
from ..fpga.board import FPGABoard
from ..fpga.slots import SlotState
from ..schedulers.base import OnBoardScheduler
from ..schedulers.runtime import AppRun, BundleRun, TaskRun
from ..sim import Engine

#: Tolerance for comparing incrementally maintained float accumulators
#: against a from-scratch recomputation.
FLOAT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Violation:
    """One broken invariant, timestamped with the simulation clock."""

    time_ms: float
    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[t={self.time_ms:.3f}] {self.invariant}: {self.detail}"


# ---------------------------------------------------------------------------
# Stateless checkers (callable on any live or finished simulation)
# ---------------------------------------------------------------------------


def check_app_run(app: AppRun) -> List[str]:
    """Incremental run-state of one application vs recomputation."""
    problems: List[str] = []
    batch = app.batch
    spec = app.spec
    for index, done in enumerate(app.done_counts):
        if not (0 <= done <= batch):
            problems.append(
                f"{app.inst.name}: task {index} done_count {done} "
                f"outside [0, {batch}]"
            )
    recomputed_tasks = sum(1 for done in app.done_counts if done < batch)
    if app.unfinished_task_count() != recomputed_tasks:
        problems.append(
            f"{app.inst.name}: incremental unfinished tasks "
            f"{app.unfinished_task_count()} != recomputed {recomputed_tasks}"
        )
    left = app._bundle_members_left
    if left is not None:
        recomputed_bundles = 0
        for bundle_index, bundle in enumerate(spec.bundles):
            members_left = sum(
                1 for t in bundle.task_indices if app.done_counts[t] < batch
            )
            if left[bundle_index] != members_left:
                problems.append(
                    f"{app.inst.name}: bundle {bundle_index} members-left "
                    f"{left[bundle_index]} != recomputed {members_left}"
                )
            if members_left:
                recomputed_bundles += 1
        if app.unfinished_bundle_count() != recomputed_bundles:
            problems.append(
                f"{app.inst.name}: incremental unfinished bundles "
                f"{app.unfinished_bundle_count()} != recomputed "
                f"{recomputed_bundles}"
            )
    bundle_names = {bundle.name for bundle in spec.bundles}
    loaded_big = sum(1 for run in app.loaded.values() if isinstance(run, BundleRun))
    loaded_little = sum(1 for run in app.loaded.values() if isinstance(run, TaskRun))
    pending_big = sum(1 for name in app.pending_pr if name in bundle_names)
    pending_little = len(app.pending_pr) - pending_big
    if app.used_big != loaded_big + pending_big:
        problems.append(
            f"{app.inst.name}: used_big {app.used_big} != loaded "
            f"{loaded_big} + pending {pending_big}"
        )
    if app.used_little != loaded_little + pending_little:
        problems.append(
            f"{app.inst.name}: used_little {app.used_little} != loaded "
            f"{loaded_little} + pending {pending_little}"
        )
    # The Big.Little runtime rules, checked against the paper's wording
    # rather than the helpers the schedulers call.
    if app.used_big and app.used_little:
        problems.append(
            f"{app.inst.name}: holds {app.used_big} Big and "
            f"{app.used_little} Little slots at once"
        )
    for run in app.loaded.values():
        if not isinstance(run, BundleRun):
            continue
        if run.preempt_requested:
            problems.append(
                f"{app.inst.name}: bundle {run.bundle.name} was asked to preempt"
            )
        times = [spec.tasks[index].exec_time_ms for index in run.bundle.task_indices]
        serial = max(times) * (batch + 2) > sum(times) * batch
        if run.serial != serial:
            problems.append(
                f"{app.inst.name}: bundle {run.bundle.name} runs "
                f"{'serial' if run.serial else 'parallel'}, the criterion "
                f"picks {'serial' if serial else 'parallel'}"
            )
    if app.finished:
        if not app.all_done:
            problems.append(f"{app.inst.name}: finished but not all done")
        if app.finish_time is None:
            problems.append(f"{app.inst.name}: finished without a finish time")
        if app.loaded or app.pending_pr:
            problems.append(
                f"{app.inst.name}: finished with runs still loaded/pending"
            )
    return problems


def check_scheduler(scheduler: OnBoardScheduler) -> List[str]:
    """Stable-point consistency of one scheduler's aggregate state."""
    problems: List[str] = []
    stats = scheduler.stats
    if stats.completions != len(stats.responses):
        problems.append(
            f"completions counter {stats.completions} != response records "
            f"{len(stats.responses)}"
        )
    if stats.completions > stats.arrivals:
        problems.append(
            f"more completions ({stats.completions}) than arrivals "
            f"({stats.arrivals})"
        )
    for app in scheduler.apps:
        problems.extend(check_app_run(app))
        membership = sum(
            app in queue
            for queue in (scheduler.c_wait, scheduler.s_big, scheduler.s_little)
        )
        if app.finished and membership:
            problems.append(f"{app.inst.name}: finished but still queued")
        if membership > 1:
            problems.append(f"{app.inst.name}: present in {membership} queues")
    # The incrementally kept live list and the totals read from it.
    unfinished = [app for app in scheduler.apps if not app.finished]
    if scheduler.live_apps != unfinished:
        problems.append(
            "live list out of sync: "
            f"{[app.inst.name for app in scheduler.live_apps]} != unfinished "
            f"apps {[app.inst.name for app in unfinished]}"
        )
    committed_big = scheduler.committed_big()
    committed_little = scheduler.committed_little()
    recount_big = sum(app.used_big for app in unfinished)
    recount_little = sum(app.used_little for app in unfinished)
    if (committed_big, committed_little) != (recount_big, recount_little):
        problems.append(
            f"committed (Big, Little) ({committed_big}, {committed_little}) "
            f"!= recount over apps ({recount_big}, {recount_little})"
        )
    # Slot occupancy conservation: what the fabric shows committed must
    # equal what the live apps believe they hold.
    board = scheduler.board
    busy_big = busy_little = 0
    for slot in board.slots:
        if slot.state is not SlotState.IDLE:
            if slot.kind is SlotKind.BIG:
                busy_big += 1
            else:
                busy_little += 1
    if busy_big != committed_big:
        problems.append(
            f"slot conservation: {busy_big} busy Big slots vs "
            f"{committed_big} committed"
        )
    if busy_little != committed_little:
        problems.append(
            f"slot conservation: {busy_little} busy Little slots vs "
            f"{committed_little} committed"
        )
    if committed_big > scheduler.big_total:
        problems.append(
            f"committed Big slots {committed_big} exceed fabric "
            f"{scheduler.big_total}"
        )
    if committed_little > scheduler.little_total:
        problems.append(
            f"committed Little slots {committed_little} exceed fabric "
            f"{scheduler.little_total}"
        )
    return problems


def check_resources(board: FPGABoard) -> List[str]:
    """Runtime bounds on every shared resource of one board."""
    problems: List[str] = []
    resources = [core for core in board.ps.cores]
    resources.append(board.pcap._port)
    for resource in resources:
        if not (0 <= resource.in_use <= resource.capacity):
            problems.append(
                f"resource {resource.name!r}: in_use {resource.in_use} "
                f"outside [0, {resource.capacity}]"
            )
        fraction = resource.busy_fraction()
        if not (-FLOAT_TOLERANCE <= fraction <= 1.0 + FLOAT_TOLERANCE):
            problems.append(
                f"resource {resource.name!r}: busy fraction {fraction} "
                f"outside [0, 1]"
            )
        if resource.abandon_misses:
            problems.append(
                f"resource {resource.name!r}: {resource.abandon_misses} "
                "cancel(s) for requests the resource was not holding"
            )
    return problems


def check_quiescent(engine: Engine, scheduler) -> List[str]:
    """End-of-run balance: a drained simulation holds nothing back.

    Valid only once the run has drained — the event heap must be empty,
    every core and the PCAP port released, no PR plan queued, and no
    process still parked on a pipeline item event (orphaned waiter).
    """
    problems: List[str] = []
    pending = engine.pending_count()
    if pending:
        problems.append(f"{pending} events left in the queue after drain")
    board = scheduler.board
    for resource in [*board.ps.cores, board.pcap._port]:
        if resource.in_use != 0:
            problems.append(
                f"resource {resource.name!r}: {resource.in_use} units never "
                "released (acquire/release imbalance)"
            )
        if resource.queue_length:
            problems.append(
                f"resource {resource.name!r}: {resource.queue_length} "
                "requests still waiting"
            )
    if isinstance(scheduler, OnBoardScheduler):
        if len(scheduler.pr_queue):
            problems.append(
                f"{len(scheduler.pr_queue)} PR plans still queued after drain"
            )
        for app in scheduler.apps:
            for task_index, events in app._item_events.items():
                for item, event in events.items():
                    if event._fast_process is not None or event.callbacks:
                        problems.append(
                            f"{app.inst.name}: orphaned waiter on task "
                            f"{task_index} item {item}"
                        )
    return problems


def check_tracker(tracker, board: FPGABoard) -> List[str]:
    """Utilization tracker's incremental accumulators vs recomputation."""
    problems: List[str] = []
    recomputed_lut = recomputed_ff = 0.0
    for index, occupancy in tracker._current.items():
        recomputed_lut += occupancy.usage.lut
        recomputed_ff += occupancy.usage.ff
        slot = board.slots[index]
        if slot.state is not SlotState.LOADED:
            problems.append(
                f"tracker holds occupancy for slot {slot.name} "
                f"in state {slot.state.value}"
            )
    if abs(tracker._cur_usage_lut - recomputed_lut) > FLOAT_TOLERANCE:
        problems.append(
            f"tracker incremental LUT usage {tracker._cur_usage_lut} != "
            f"recomputed {recomputed_lut}"
        )
    if abs(tracker._cur_usage_ff - recomputed_ff) > FLOAT_TOLERANCE:
        problems.append(
            f"tracker incremental FF usage {tracker._cur_usage_ff} != "
            f"recomputed {recomputed_ff}"
        )
    loaded = sum(1 for slot in board.slots if slot.state is SlotState.LOADED)
    if len(tracker._current) != loaded:
        problems.append(
            f"tracker sees {len(tracker._current)} occupied slots, "
            f"board has {loaded} loaded"
        )
    return problems


def check_serving_plan(plan, arrivals) -> List[Violation]:
    """No-lost-requests audit of a supervised serving plan.

    Every input arrival must carry exactly one terminal disposition
    (served exactly once on a shard that was SERVING at admission, or
    explicitly shed inside a degraded window); the final per-shard
    streams must contain exactly the served requests, time-sorted; and
    the typed shed/reroute events must reconcile with the ledger.
    Violations are collected, never raised, so the oracle can report
    every broken guarantee of a plan at once.
    """
    violations: List[Violation] = []

    def note(time_ms: float, invariant: str, detail: str) -> None:
        violations.append(Violation(time_ms, invariant, detail))

    def state_at(history, time_ms: float) -> str:
        state = history[0][1] if history else "?"
        for at_ms, to_state, _ in history:
            if at_ms > time_ms:
                break
            state = to_state
        return state

    arrivals = list(arrivals)
    if len(plan.ledger) != len(arrivals):
        note(
            0.0, "no-lost-requests",
            f"ledger has {len(plan.ledger)} records for "
            f"{len(arrivals)} arrivals",
        )
        return violations

    served_by_shard: dict = {}
    for record, arrival in zip(plan.ledger, arrivals):
        if (record.app, record.batch, record.submitted_ms) != (
            arrival.app_name, arrival.batch_size, arrival.time_ms
        ):
            note(
                record.submitted_ms, "no-lost-requests",
                f"request {record.seq}: ledger identity "
                f"({record.app}, {record.batch}, {record.submitted_ms}) "
                f"!= arrival ({arrival.app_name}, {arrival.batch_size}, "
                f"{arrival.time_ms})",
            )
        if record.disposition == "served":
            if not 0 <= record.shard < plan.n_shards:
                note(
                    record.time_ms, "no-lost-requests",
                    f"request {record.seq} served on shard {record.shard} "
                    f"outside [0, {plan.n_shards})",
                )
                continue
            if record.time_ms < record.submitted_ms:
                note(
                    record.time_ms, "no-lost-requests",
                    f"request {record.seq} admitted at {record.time_ms} "
                    f"before submission at {record.submitted_ms}",
                )
            history = plan.histories.get(record.shard, [])
            state = state_at(history, record.time_ms)
            if state != "serving":
                note(
                    record.time_ms, "serving-state",
                    f"request {record.seq} admitted to shard "
                    f"{record.shard} in state {state!r} at "
                    f"t={record.time_ms:g}",
                )
            served_by_shard.setdefault(record.shard, []).append(record)
        elif record.disposition == "shed":
            if not record.shed_reason:
                note(
                    record.time_ms, "shed-policy",
                    f"request {record.seq} shed without a reason",
                )
            inside = any(
                start <= record.time_ms and (end is None or record.time_ms < end)
                for start, end in plan.shed_windows
            )
            if not inside:
                note(
                    record.time_ms, "shed-policy",
                    f"request {record.seq} shed ({record.shed_reason}) at "
                    f"t={record.time_ms:g} outside every degraded window",
                )
        else:
            note(
                record.submitted_ms, "no-lost-requests",
                f"request {record.seq} has no terminal disposition "
                f"(got {record.disposition!r})",
            )

    # Streams contain exactly the served requests, time-sorted.
    for shard, stream in enumerate(plan.streams):
        times = [arrival.time_ms for arrival in stream]
        if times != sorted(times):
            note(
                times[0] if times else 0.0, "stream-consistency",
                f"shard {shard} stream is not time-sorted",
            )
        expected = sorted(
            (r.time_ms, r.app, r.batch)
            for r in served_by_shard.get(shard, [])
        )
        got = sorted(
            (a.time_ms, a.app_name, a.batch_size) for a in stream
        )
        if expected != got:
            note(
                0.0, "stream-consistency",
                f"shard {shard} stream holds {len(got)} requests but the "
                f"ledger served {len(expected)} there (or identities "
                "differ)",
            )

    # Typed events reconcile with the ledger.
    shed_events = sum(1 for e in plan.events if e.kind == "shed")
    reroute_events = sum(1 for e in plan.events if e.kind == "reroute")
    shed_records = sum(1 for r in plan.ledger if r.disposition == "shed")
    hops = sum(len(r.rerouted_from) for r in plan.ledger)
    shed_after_reroute = sum(
        1 for r in plan.ledger
        if r.disposition == "shed" and r.rerouted_from
    )
    if shed_events != shed_records:
        note(
            0.0, "event-ledger",
            f"{shed_events} shed events vs {shed_records} shed ledger "
            "records",
        )
    if reroute_events != hops - shed_after_reroute:
        note(
            0.0, "event-ledger",
            f"{reroute_events} reroute events vs "
            f"{hops - shed_after_reroute} successful reroute hops in the "
            "ledger",
        )
    return violations


# ---------------------------------------------------------------------------
# The live monitor
# ---------------------------------------------------------------------------


class InvariantMonitor:
    """Attach the checkers to a running simulation.

    Construction subscribes to every slot's observers (clock monotonicity
    on each fabric event) and — for :class:`OnBoardScheduler` systems — to
    the finish listeners, where the full stable-point sweep runs.  Call
    :meth:`finalize` after ``engine.run`` returns for the end-of-run
    balance checks.  Violations accumulate in :attr:`violations`.
    """

    def __init__(
        self,
        engine: Engine,
        board: FPGABoard,
        scheduler,
        tracker=None,
    ) -> None:
        self.engine = engine
        self.board = board
        self.scheduler = scheduler
        self.tracker = tracker
        self.violations: List[Violation] = []
        self._last_time = engine.now
        self._finalized = False
        for slot in board.slots:
            slot.observers.append(self._on_slot_event)
        if isinstance(scheduler, OnBoardScheduler):
            scheduler.finish_listeners.append(self._on_finish)

    # ------------------------------------------------------------------
    def _note(self, invariant: str, problems: List[str]) -> None:
        now = self.engine.now
        for detail in problems:
            self.violations.append(Violation(now, invariant, detail))

    def _check_clock(self, source: str) -> None:
        now = self.engine.now
        if now < self._last_time:
            self.violations.append(
                Violation(
                    now,
                    "clock-monotonicity",
                    f"{source} at t={now} after t={self._last_time}",
                )
            )
        self._last_time = max(self._last_time, now)

    def _on_slot_event(self, slot, occupancy) -> None:
        self._check_clock(f"slot {slot.name} event")

    def _on_finish(self, scheduler, app_run) -> None:
        self._check_clock(f"finish of {app_run.inst.name}")
        self.check_now()

    # ------------------------------------------------------------------
    def check_now(self) -> List[Violation]:
        """Run the stable-point sweep against the current state."""
        before = len(self.violations)
        if isinstance(self.scheduler, OnBoardScheduler):
            self._note("run-state", check_scheduler(self.scheduler))
        self._note("resource-balance", check_resources(self.board))
        if self.tracker is not None:
            self._note("utilization-tracker", check_tracker(self.tracker, self.board))
        return self.violations[before:]

    def finalize(self, drained: bool = True) -> List[Violation]:
        """End-of-run sweep; ``drained=False`` skips the quiescence checks."""
        if self._finalized:
            return self.violations
        self._finalized = True
        self.check_now()
        if drained:
            self._note("quiescence", check_quiescent(self.engine, self.scheduler))
        return self.violations
