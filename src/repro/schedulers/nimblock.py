"""Nimblock-style scheduling (the state-of-the-art comparator).

Nimblock (ISCA'23) allocates each application its ILP-derived optimal slot
count for pipeline execution, shares leftover slots dynamically, and
preempts long-running applications so arrivals are not starved.  Crucially
— and this is the weakness VersaSlot attacks — all scheduling and PR run on
a single CPU core, so every bitstream load suspends task launching, and
uniform Little slots keep PR frequency high.
"""

from __future__ import annotations

from ..config import DEFAULT_PARAMETERS, SystemParameters
from ..fpga.board import FPGABoard
from ..sim import NULL_TRACER, Tracer
from .base import OnBoardScheduler
from .ilp import optimal_little_slots


class NimblockScheduler(OnBoardScheduler):
    """ILP-optimal slot counts + leftover sharing + preemption, single-core."""

    __slots__ = ("_little_pr_ms",)

    name = "Nimblock"

    def __init__(
        self,
        board: FPGABoard,
        params: SystemParameters = DEFAULT_PARAMETERS,
        tracer: Tracer = NULL_TRACER,
        dual_core: bool = False,
    ) -> None:
        super().__init__(
            board,
            params,
            dual_core=dual_core,
            preemption=True,
            preemption_quantum_ms=1200.0,
            tracer=tracer,
        )
        self._little_pr_ms = self.params.little_pr_ms

    def optimal_for(self, app) -> int:
        """O_L of one application (memoised ILP result)."""
        return optimal_little_slots(
            app.spec, app.batch, self._little_pr_ms, self.little_total
        )

    def allocate(self) -> None:
        order = self.dispatch_order()
        free = self.little_total
        # Demand of each app that met free slots, in ``order``.  ``free``
        # never grows, so when the sharing phase runs every app has one.
        demands = []
        # Primary: optimal slot count per app, oldest arrival first.
        for app in order:
            used = app.used_little
            if free > 0:
                demand = used + len(app.little_payloads())
                demands.append(demand)
                grant = max(used, min(self.optimal_for(app), demand, free))
            else:
                grant = used  # nothing left to grant: keep what it holds
            app.alloc_little = grant
            free -= grant
            self._update_queues(app)
        # Dynamic sharing: leftover slots go to apps that can use more.
        if free > 0:
            for app, demand in zip(order, demands):
                extra = min(free, max(0, demand - app.alloc_little))
                if extra:
                    app.alloc_little += extra
                    free -= extra
                    self._update_queues(app)
                if free <= 0:
                    break

    def _update_queues(self, app) -> None:
        if app.alloc_little > 0 and app in self.c_wait:
            self.c_wait.remove(app)
            self.s_little.append(app)
