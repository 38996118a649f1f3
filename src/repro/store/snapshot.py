"""Campaign snapshots: the periodic run-state checkpoints resume uses.

After every N completed cells the orchestrator records a
:class:`CampaignSnapshot` notification: the keys of every completed cell,
the merged :class:`~repro.telemetry.digest.ResponseDigest` over their
responses, and the RNG-free specs of the covered cells.  ``--resume``
reads the latest snapshot plus any record notifications past its
watermark, skips the finished cells, and continues — the resumed run's
records and rollups are bit-identical to an uninterrupted one because
cells are deterministic and independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from .notification import StoreFormatError

#: Bumped whenever the snapshot payload shape changes incompatibly.
SNAPSHOT_SCHEMA = 1


def cell_key(cell) -> str:
    """The stable identity of one campaign cell within its campaign.

    ``(scenario, system, sequence_index, seed, shard)`` uniquely names a
    cell in every campaign enumeration (fleet cells vary seed × shard;
    registry campaigns vary system × sequence × seed), and every
    persisted record carries the same five fields — so completed work is
    matched to pending cells without touching arrivals or RNG state.
    """
    return (
        f"{cell.scenario}|{cell.system}|seq{cell.sequence_index}"
        f"|seed{cell.seed}|shard{cell.shard}"
    )


def cell_spec(cell) -> Dict[str, object]:
    """An RNG-free, JSON-ready description of one cell (no arrivals)."""
    spec: Dict[str, object] = {
        "scenario": cell.scenario,
        "system": cell.system,
        "sequence_index": cell.sequence_index,
        "seed": cell.seed,
        "shard": cell.shard,
        "kernel": getattr(cell, "kernel", "default"),
    }
    workload = getattr(cell, "workload", None)
    if workload is not None:
        spec["n_apps"] = workload.n_apps
    arrivals = getattr(cell, "arrivals", None)
    if arrivals is not None:
        spec["n_apps"] = len(arrivals)
    return spec


@dataclass
class CampaignSnapshot:
    """One periodic checkpoint of a running campaign."""

    #: Keys of every cell completed so far, in completion order.
    completed: Tuple[str, ...]
    #: Merged response digest over every completed cell
    #: (``ResponseDigest.to_dict()``; empty dict when no responses yet).
    digest: Dict[str, object] = field(default_factory=dict)
    #: RNG-free specs of the completed cells (diagnostics / audit).
    cells: Tuple[Dict[str, object], ...] = ()
    #: Newest notification id this snapshot covers: resume reads record
    #: notifications with ``id > covered_id`` to catch the tail the next
    #: snapshot never summarized.
    covered_id: int = 0
    schema: int = SNAPSHOT_SCHEMA

    def __post_init__(self) -> None:
        self.completed = tuple(self.completed)
        self.cells = tuple(dict(c) for c in self.cells)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "completed": list(self.completed),
            "digest": dict(self.digest),
            "cells": [dict(c) for c in self.cells],
            "covered_id": self.covered_id,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignSnapshot":
        """Decode a persisted payload, checking every field's type.

        A payload of the wrong shape raises :class:`StoreFormatError`
        naming the bad field.
        """
        if not isinstance(payload, dict):
            raise StoreFormatError(
                f"snapshot payload must be an object, got "
                f"{type(payload).__name__}"
            )
        schema = payload.get("schema", SNAPSHOT_SCHEMA)
        if schema != SNAPSHOT_SCHEMA:
            raise StoreFormatError(
                f"snapshot schema {schema} not supported "
                f"(expected {SNAPSHOT_SCHEMA})"
            )
        completed = payload.get("completed", [])
        digest = payload.get("digest", {})
        cells = payload.get("cells", [])
        covered_id = payload.get("covered_id", 0)
        for name, ok, expected in (
            ("completed",
             isinstance(completed, list)
             and all(isinstance(key, str) for key in completed),
             "a list of cell keys"),
            ("digest", isinstance(digest, dict), "an object"),
            ("cells",
             isinstance(cells, list)
             and all(isinstance(spec, dict) for spec in cells),
             "a list of cell specs"),
            ("covered_id",
             isinstance(covered_id, int) and not isinstance(covered_id, bool),
             "an integer"),
        ):
            if not ok:
                raise StoreFormatError(
                    f"snapshot field {name!r} must be {expected}, got "
                    f"{payload[name]!r:.60}"
                )
        return cls(
            completed=tuple(completed),  # type: ignore[arg-type]
            digest=dict(digest),  # type: ignore[arg-type]
            cells=tuple(cells),  # type: ignore[arg-type]
            covered_id=covered_id,  # type: ignore[arg-type]
        )


__all__ = ["CampaignSnapshot", "SNAPSHOT_SCHEMA", "cell_key", "cell_spec"]
