"""Round-robin spatio-temporal sharing (the Coyote-style comparator).

Like FCFS this is a naive DPR-sharing system — reservations are static
(held until the application completes, no pipeline-aware sizing or early
slot release) — but slots are handed out breadth-first, one per waiting
application per round from a rotating cursor, so no single wide
application can monopolize the fabric.  Single-core: PR blocks launches.
"""

from __future__ import annotations

from ..config import DEFAULT_PARAMETERS, SystemParameters
from ..fpga.board import FPGABoard
from ..sim import NULL_TRACER, Tracer
from .base import OnBoardScheduler
from .runtime import TaskRun


class RoundRobinScheduler(OnBoardScheduler):
    """Static reservations granted breadth-first, single-core.

    When more applications are live than slots, RR *time-slices*: every
    ``rotation_quantum_ms`` the longest-resident task is evicted so a
    waiting application gets its turn.  Each eviction costs a later
    reconfiguration — the PR churn that caps RR's gains in the paper.
    """

    __slots__ = ("_rotation", "_last_rotate_ms")

    name = "RR"

    #: Naive cross-slot streaming: coarse double-buffered chunks via DDR.
    pipeline_chunk_items = 2

    #: Time slice before a slot is rotated to a waiting application.
    rotation_quantum_ms = 3000.0

    def __init__(
        self,
        board: FPGABoard,
        params: SystemParameters = DEFAULT_PARAMETERS,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        super().__init__(board, params, dual_core=False, preemption=False, tracer=tracer)
        self._rotation = 0
        self._last_rotate_ms = -1e12

    def maybe_preempt(self) -> None:
        """Quantum-expiry rotation: evict one run for the waiting apps."""
        waiters = [app for app in self.live_apps if app.alloc_little == 0]
        if not waiters:
            return
        if self.engine.now - self._last_rotate_ms < self.rotation_quantum_ms:
            return
        runs = [
            (app, run)
            for app in self.s_little
            for run in app.loaded.values()
            if isinstance(run, TaskRun) and not run.preempt_requested
        ]
        if not runs:
            return
        # Evict from the app holding the most slots; oldest app first.
        victim_app, victim_run = max(
            runs, key=lambda pair: (pair[0].used_little, -pair[0].inst.app_id)
        )
        victim_run.request_preempt()
        victim_app.alloc_little = max(0, victim_app.alloc_little - 1)
        self._last_rotate_ms = self.engine.now
        self.tracer.emit(
            self.engine.now, "rotate", app=victim_app.inst.name, task=victim_run.task.name
        )

    def allocate(self) -> None:
        active = self.dispatch_order()
        free = self.little_total - sum(app.alloc_little for app in active)
        if free <= 0 or not active:
            return
        # One slot per app per round, rotating the starting point; apps
        # whose reservation already covers every task are skipped.
        count = len(active)
        cursor = self._rotation % count
        stale = 0
        while free > 0 and stale < count:
            app = active[cursor % count]
            cursor += 1
            want = min(app.inst.task_count, self.little_total)
            if app.alloc_little < want:
                if app.alloc_little == 0 and app in self.c_wait:
                    self.c_wait.remove(app)
                    self.s_little.append(app)
                app.alloc_little += 1
                free -= 1
                stale = 0
            else:
                stale += 1
        self._rotation += 1
