"""Checkpoint markers: how far a durable campaign has got.

After every chunk of N cells the orchestrator appends its records and
then a :class:`CampaignSnapshot` notification: a constant-size marker
holding how many distinct cells have a successful record so far and the
newest notification id those records reach.  ``store inspect`` shows
the newest marker as progress and ``store verify`` checks that every
marker is backed by records.  Resume reads no marker: the records
themselves say which cells are done
(:meth:`~repro.store.campaign_store.CampaignStore.completed_cells`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .notification import StoreFormatError

#: Bumped whenever the marker payload shape changes.  Schema 1 listed
#: every completed cell key, a merged response digest and the cell specs;
#: it still decodes (:meth:`CampaignSnapshot.from_dict`).
SNAPSHOT_SCHEMA = 2


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


def _is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclass(frozen=True)
class CampaignSnapshot:
    """One checkpoint marker of a running campaign."""

    #: Distinct cells with a successful record so far.
    completed: int
    #: Newest notification id the marker covers: every counted record
    #: lies at or before it.
    covered_id: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SNAPSHOT_SCHEMA,
            "completed": self.completed,
            "covered_id": self.covered_id,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CampaignSnapshot":
        """Decode a persisted marker, checking each field it reads.

        A schema-1 payload decodes to the marker schema 2 records for the
        same state: its count of distinct completed keys.  A payload of
        the wrong shape raises :class:`StoreFormatError` naming the field.
        """
        if not isinstance(payload, dict):
            raise StoreFormatError(
                f"snapshot payload must be an object, got "
                f"{type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema not in (1, SNAPSHOT_SCHEMA):
            raise StoreFormatError(
                f"snapshot schema {schema!r} not supported "
                f"(expected 1 or {SNAPSHOT_SCHEMA})"
            )
        completed = payload.get("completed")
        expected = "a non-negative integer"
        if schema == 1:
            expected = "a list of cell keys"
            keys_ok = isinstance(completed, list) and all(
                isinstance(key, str) for key in completed
            )
            completed = len(set(completed)) if keys_ok else None  # type: ignore[arg-type]
        covered_id = payload.get("covered_id")
        for name, value, wanted in (
            ("completed", completed, expected),
            ("covered_id", covered_id, "a non-negative integer"),
        ):
            if not _is_count(value):
                raise StoreFormatError(
                    f"snapshot field {name!r} must be {wanted}, got "
                    f"{payload.get(name)!r:.60}"
                )
        return cls(completed=completed, covered_id=covered_id)  # type: ignore[arg-type]


__all__ = ["CampaignSnapshot", "SNAPSHOT_SCHEMA", "cell_key"]
