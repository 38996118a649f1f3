"""The VersaSlot schedulers (the paper's primary contribution).

Two variants share the dual-core machinery (scheduler on core 0, PR server
on core 1, asynchronous PR requests via the on-chip-memory queue):

* :class:`VersaSlotOnlyLittle` — uniform Little slots, Nimblock-style
  ILP-optimal allocation with preemption, but with PR decoupled from
  scheduling.  This isolates the dual-core contribution.
* :class:`VersaSlotBigLittle` — the full Big.Little architecture:
  Algorithm 1 allocation (binding/rebinding + redistribution), online
  3-in-1 bundling with the serial/parallel criterion, and preemption
  restricted to Little slots (apps never span both kinds, and
  redistribution already prevents monopolization).
"""

from __future__ import annotations

from ..apps.application import BundleSpec
from ..config import DEFAULT_PARAMETERS, SystemParameters
from ..fpga.board import FPGABoard
from ..fpga.slots import BoardConfig
from ..sim import NULL_TRACER, Tracer
from ..schedulers.base import OnBoardScheduler
from ..schedulers.ilp import optimal_big_slots, optimal_little_slots
from ..schedulers.nimblock import NimblockScheduler
from ..schedulers.runtime import AppRun
from .allocation import allocate_big_little
from .bundling import serial_preferred
from .scheduling import dispatch_order


class VersaSlotOnlyLittle(NimblockScheduler):
    """VersaSlot on an Only.Little board: dual-core decoupled PR."""

    __slots__ = ()

    name = "VersaSlot-OL"

    def __init__(
        self,
        board: FPGABoard,
        params: SystemParameters = DEFAULT_PARAMETERS,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        super().__init__(board, params, tracer=tracer, dual_core=True)


class VersaSlotBigLittle(OnBoardScheduler):
    """VersaSlot on a Big.Little board: Algorithm 1 + 2 with bundling.

    ``rebinding`` / ``redistribution`` expose Algorithm 1's two optional
    phases for ablation; both default on, as in the paper.
    """

    __slots__ = ("rebinding", "redistribution", "_opt_big_cb", "_opt_little_cb")

    name = "VersaSlot-BL"

    def __init__(
        self,
        board: FPGABoard,
        params: SystemParameters = DEFAULT_PARAMETERS,
        tracer: Tracer = NULL_TRACER,
        rebinding: bool = True,
        redistribution: bool = True,
    ) -> None:
        if board.big_slot_count == 0:
            raise ValueError(
                f"{type(self).__name__} needs a Big.Little board, got "
                f"{board.config.value}"
            )
        super().__init__(board, params, dual_core=True, preemption=True, tracer=tracer)
        self.rebinding = rebinding
        self.redistribution = redistribution
        # Bound once: allocate() runs on every pass, and creating the two
        # method objects per call shows up in campaign profiles.
        self._opt_big_cb = self._optimal_big
        self._opt_little_cb = self._optimal_little

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def allocate(self) -> None:
        allocate_big_little(
            self,
            self._opt_big_cb,
            self._opt_little_cb,
            rebinding=self.rebinding,
            redistribution=self.redistribution,
        )

    def _optimal_big(self, app: AppRun) -> int:
        return optimal_big_slots(
            app.spec, app.batch, self.params.big_pr_ms, self.big_total
        )

    def _optimal_little(self, app: AppRun) -> int:
        return optimal_little_slots(
            app.spec, app.batch, self.params.little_pr_ms, self.little_total
        )

    # ------------------------------------------------------------------
    # Algorithm 2: online bundling decision and dispatch ordering
    # ------------------------------------------------------------------
    def choose_serial_bundle(self, app_run: AppRun, bundle: BundleSpec) -> bool:
        # Dispatch only ever hands us bundles from this spec (validated at
        # construction), so index the frozen time table directly.
        times = app_run.spec._bundle_times[bundle.index]
        return serial_preferred(times, app_run.batch)

    def dispatch_order(self):
        """Big-bound apps first: Big slots cannot be back-filled by tasks."""
        return dispatch_order(self)

    # Preemption: Big-bound apps are exempt (they cannot be preempted
    # without violating the all-tasks-in-Big constraint); the base helper
    # already only targets Little-slot task runs.


def make_versaslot(
    board: FPGABoard,
    params: SystemParameters = DEFAULT_PARAMETERS,
    tracer: Tracer = NULL_TRACER,
) -> OnBoardScheduler:
    """Instantiate the VersaSlot variant matching the board configuration."""
    if board.config is BoardConfig.BIG_LITTLE:
        return VersaSlotBigLittle(board, params, tracer=tracer)
    return VersaSlotOnlyLittle(board, params, tracer=tracer)
