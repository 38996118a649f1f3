"""The FPGA board: PS + PL assembled.

A :class:`FPGABoard` bundles the ARM cores, the PCAP, the SD-card bitstream
library and the slot set for one static-region configuration.  Boards are
deliberately policy-free — all scheduling intelligence lives in
``repro.schedulers`` and ``repro.core``.
"""

from __future__ import annotations

from typing import List, Optional

from ..config import DEFAULT_PARAMETERS, SystemParameters
from ..sim import Engine
from .bitstream import BitstreamLibrary, SlotKind
from .cpu import ProcessingSystem
from .interconnect import AuroraLink
from .pcap import PCAP
from .slots import BoardConfig, Slot, SlotState, build_slots, fabric_capacity


class FPGABoard:
    """One ZCU216-class board with a fixed static-region configuration."""

    def __init__(
        self,
        engine: Engine,
        config: BoardConfig,
        params: SystemParameters = DEFAULT_PARAMETERS,
        name: str = "board",
        core_count: int = 2,
    ) -> None:
        self.engine = engine
        self.config = config
        self.params = params
        self.name = name
        self.ps = ProcessingSystem(engine, core_count=core_count)
        self.pcap = PCAP(engine, params)
        self.sd_card = BitstreamLibrary(params)
        self.slots: List[Slot] = build_slots(engine, config, params)
        self.link: Optional[AuroraLink] = None
        # The slot set is fixed for the board's lifetime; the per-kind
        # partition is asked for on every scheduler pass, so precompute it.
        self._slots_by_kind = {
            kind: [slot for slot in self.slots if slot.kind is kind]
            for kind in SlotKind
        }

    # ------------------------------------------------------------------
    # Slot queries used by every scheduler
    # ------------------------------------------------------------------
    def idle_slots(self, kind: SlotKind) -> List[Slot]:
        """Idle slots of one shape."""
        return [slot for slot in self._slots_by_kind[kind] if slot.is_idle]

    def idle_slot(self, kind: SlotKind) -> Optional[Slot]:
        """The first idle slot of one shape, or None."""
        for slot in self._slots_by_kind[kind]:
            if slot.state is SlotState.IDLE:
                return slot
        return None

    @property
    def big_slot_count(self) -> int:
        return len(self._slots_by_kind[SlotKind.BIG])

    @property
    def little_slot_count(self) -> int:
        return len(self._slots_by_kind[SlotKind.LITTLE])

    def fabric_capacity(self):
        """Total reconfigurable LUT/FF capacity of this board."""
        return fabric_capacity(self.slots)

    def attach_link(self, link: AuroraLink) -> None:
        """Connect the board's zSFP+ port to a cluster link."""
        self.link = link

    def __repr__(self) -> str:
        return (
            f"<FPGABoard {self.name} {self.config.value} "
            f"B={self.big_slot_count} L={self.little_slot_count}>"
        )


def connect_boards(board_a: FPGABoard, board_b: FPGABoard) -> AuroraLink:
    """Create a shared Aurora link between two boards."""
    if board_a.engine is not board_b.engine:
        raise ValueError("boards must share a simulation engine")
    link = AuroraLink(board_a.engine, board_a.params, name=f"{board_a.name}<->{board_b.name}")
    board_a.attach_link(link)
    board_b.attach_link(link)
    return link
