"""Shared experiment constants: the system view and the run horizon.

Simulation itself lives in :mod:`repro.campaign`
(:func:`~repro.campaign.simulate_run` for one run, the campaign runner
and backends for many), and every figure computes from the resulting
:class:`~repro.campaign.RunRecord` objects.  :data:`SYSTEMS` is a live
read-only view of the campaign system registry.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterator, Tuple

from ..campaign.backend import DEFAULT_HORIZON_MS
from ..campaign.scenario import SYSTEM_REGISTRY, get_system
from ..fpga.slots import BoardConfig

#: Safety horizon: every sequence must drain well before this (ms).
RUN_HORIZON_MS = DEFAULT_HORIZON_MS


class _SystemsView(Mapping):
    """Read-only live view of the campaign system registry.

    Preserves the historical ``{name: (factory, board_config)}`` shape, so
    ``SYSTEMS["FCFS"]`` and ``list(SYSTEMS)`` keep working while new
    systems registered via ``repro.campaign.register_system`` appear
    automatically.
    """

    def __getitem__(self, name: str) -> Tuple[type, BoardConfig]:
        spec = get_system(name)
        return (spec.factory, spec.board_config)

    def __iter__(self) -> Iterator[str]:
        return iter(SYSTEM_REGISTRY)

    def __len__(self) -> int:
        return len(SYSTEM_REGISTRY)

    def __repr__(self) -> str:
        return f"SYSTEMS({', '.join(SYSTEM_REGISTRY)})"


#: Evaluated systems in the paper's legend order (live registry view).
SYSTEMS: Mapping = _SystemsView()
