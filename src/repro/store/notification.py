"""Notifications: the globally ordered unit of the durable event store.

Everything the store persists — campaign :class:`~repro.campaign.results
.RunRecord` rows, typed telemetry events, periodic campaign snapshots —
flows through one monotonically numbered *notification log* (the
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
#: A typed telemetry event (payload = ``TelemetryEvent.to_dict()``).
KIND_EVENT = "event"
#: A periodic campaign snapshot (payload = ``CampaignSnapshot.to_dict()``).
KIND_SNAPSHOT = "snapshot"

#: The closed set of notification kinds a recorder will accept.
NOTIFICATION_KINDS = (KIND_RECORD, KIND_EVENT, KIND_SNAPSHOT)


class StoreFormatError(ValueError):
    """Persisted store content that does not decode.

    Raised for a projection state or snapshot payload of the wrong shape
    (a hand-edited or corrupted store), with a message naming the
    projection or field.  The CLI reports it as an operator error
    (exit 2) even where it lets simulation errors keep their traceback.
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
