"""Notifications: the globally ordered unit of the durable store.

Everything the store persists — campaign :class:`~repro.campaign.results
.RunRecord` rows and checkpoint markers — flows through one
monotonically numbered *notification log* (the
recorder/notification-log split of classic event-sourcing systems).  A
:class:`Notification` is a ``(id, kind, payload)`` triple: ``id`` is
assigned by the recorder at append time and is dense and strictly
increasing, so any consumer can resume from a watermark with
``select(start, limit)`` and never re-read what it already folded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: A persisted campaign run record (payload = ``RunRecord.to_dict()``).
KIND_RECORD = "record"
#: A telemetry event that the removed ``store ingest`` command appended:
#: older stores hold such rows, and readers count and skip them.
#: Nothing writes this kind any more.
KIND_EVENT = "event"
#: A checkpoint marker (payload = ``CampaignSnapshot.to_dict()``).
KIND_SNAPSHOT = "snapshot"

#: The closed set of notification kinds a store may hold.
NOTIFICATION_KINDS = (KIND_RECORD, KIND_EVENT, KIND_SNAPSHOT)


class StoreFormatError(ValueError):
    """Persisted store content that a command cannot use.

    Raised for a projection state or marker payload of the wrong shape
    (a hand-edited or corrupted store), with a message naming the
    projection or field, and for persisted records that do not match
    the campaign resuming them
    (:class:`~repro.store.resume.ResumeMismatchError`).  The CLI reports
    it as an operator error (exit 2) even where it lets simulation
    errors keep their traceback.
    """


@dataclass(frozen=True)
class Notification:
    """One globally ordered entry of the notification log."""

    id: int
    kind: str
    payload: Dict[str, object]

    def __post_init__(self) -> None:
        if self.kind not in NOTIFICATION_KINDS:
            raise ValueError(
                f"unknown notification kind {self.kind!r}; "
                f"known: {', '.join(NOTIFICATION_KINDS)}"
            )


__all__ = [
    "KIND_EVENT",
    "KIND_RECORD",
    "KIND_SNAPSHOT",
    "NOTIFICATION_KINDS",
    "Notification",
    "StoreFormatError",
]
