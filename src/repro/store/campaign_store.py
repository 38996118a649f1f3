"""The high-level campaign store: records and checkpoint markers on one log.

:class:`CampaignStore` is what the persistence layer hands the campaign
runner and the fleet: a :class:`~repro.store.recorder.SqliteRecorder`
wrapped in the domain vocabulary — append :class:`RunRecord` batches,
append checkpoint markers, read the log back in order.  It is
``ResultsStore``-compatible (``extend`` / ``load`` / ``path``), so every
existing call site keeps working while gaining resume and checkpoints.
:func:`resolve_store` is the one place a ``store=`` argument (path or
object) becomes the store a run writes to.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .notification import KIND_RECORD, KIND_SNAPSHOT, Notification
from .recorder import SqliteRecorder, is_sqlite_path
from .snapshot import CampaignSnapshot, cell_key


class CampaignStore:
    """Domain surface over one durable notification log."""

    def __init__(self, recorder: SqliteRecorder) -> None:
        self.recorder = recorder

    # -- ResultsStore-compatible surface ---------------------------------
    @property
    def path(self) -> Path:
        return self.recorder.path

    def extend(self, records: Iterable) -> Path:
        """Durably append records (the ``ResultsStore.extend`` contract)."""
        self.append_records(records)
        return self.path

    def load(self) -> List:
        """Every persisted :class:`RunRecord`, in notification order."""
        from ..campaign.results import RunRecord  # lazy: avoids a cycle

        return [
            RunRecord.from_dict(n.payload)
            for n in self.recorder.select()
            if n.kind == KIND_RECORD
        ]

    # -- notification-log surface ----------------------------------------
    def select(
        self, start: int = 1, limit: Optional[int] = None
    ) -> List[Notification]:
        return self.recorder.select(start=start, limit=limit)

    def max_id(self) -> int:
        return self.recorder.max_id()

    def counts(self) -> Dict[str, int]:
        return self.recorder.counts()

    def append_records(self, records: Iterable) -> List[int]:
        return self.recorder.append(
            (KIND_RECORD, record.to_dict()) for record in records
        )

    def record_snapshot(self, snapshot: CampaignSnapshot) -> int:
        (nid,) = self.recorder.append([(KIND_SNAPSHOT, snapshot.to_dict())])
        return nid

    def latest_snapshot(self) -> Optional[CampaignSnapshot]:
        """The newest checkpoint marker (None when there is none)."""
        for notification in reversed(self.recorder.select()):
            if notification.kind == KIND_SNAPSHOT:
                return CampaignSnapshot.from_dict(notification.payload)
        return None

    def completed_cells(self) -> Dict[str, object]:
        """Completed cell keys -> their persisted records, in one log read.

        Failure records (``error`` non-empty) never count as completed: a
        resumed run re-executes them.  Checkpoint markers are decoded, so
        a wrong-shaped one raises :class:`StoreFormatError`, but the
        records alone say what is done; legacy event rows are skipped.
        """
        from ..campaign.results import RunRecord  # lazy: avoids a cycle

        completed: Dict[str, object] = {}
        for notification in self.recorder.select():
            if notification.kind == KIND_SNAPSHOT:
                CampaignSnapshot.from_dict(notification.payload)
            elif notification.kind == KIND_RECORD:
                record = RunRecord.from_dict(notification.payload)
                if not record.failed:
                    completed[cell_key(record)] = record
        return completed

    def get_projection(
        self, name: str
    ) -> Tuple[int, Optional[Dict[str, object]]]:
        return self.recorder.get_projection(name)

    def set_projection(
        self, name: str, watermark: int, state: Dict[str, object]
    ) -> None:
        self.recorder.set_projection(name, watermark, state)

    def close(self) -> None:
        self.recorder.close()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _export_hint(path: Union[str, Path]) -> str:
    path = Path(path)
    return (
        "convert a results file with: python -m repro store export "
        f"{path} {path.with_suffix('.sqlite')}"
    )


def open_store(path: Union[str, Path]) -> CampaignStore:
    """Open (or create) the SQLite campaign store at ``path``.

    ``path`` must name a SQLite store (:func:`is_sqlite_path`: a
    ``.sqlite``/``.sqlite3``/``.db`` suffix or SQLite file magic); any
    other path is refused before anything is created.
    """
    if not is_sqlite_path(path):
        raise ValueError(
            f"{path} is not a SQLite store (.sqlite/.db); "
            + _export_hint(path)
        )
    return CampaignStore(SqliteRecorder(path))


def as_campaign_store(store) -> CampaignStore:
    """A :class:`CampaignStore` as is, or the SQLite store at a path."""
    if isinstance(store, CampaignStore):
        return store
    return open_store(store)


def resolve_store(store, resume: bool = False, snapshot_every: int = 0):
    """Map a ``store=`` argument onto the store a run writes to.

    A store object (or None) passes through; a SQLite path
    (:func:`is_sqlite_path`) opens a :class:`CampaignStore`; any other
    path is a plain :class:`~repro.campaign.results.ResultsStore`.
    Resume and snapshots need the SQLite store: requesting either
    without one raises ``ValueError`` naming the fix, before anything is
    written.
    """
    if isinstance(store, (str, Path)):
        if is_sqlite_path(store):
            return open_store(store)
        from ..campaign.results import ResultsStore  # lazy: avoids a cycle

        store = ResultsStore(store)
    if (resume or snapshot_every > 0) and not isinstance(store, CampaignStore):
        if store is None:
            raise ValueError(
                "snapshots/resume need a persistent store (pass --out)"
            )
        option = "--resume" if resume else "--snapshot-every"
        raise ValueError(
            f"{option} needs a SQLite store (.sqlite/.db), not "
            f"{store.path}; " + _export_hint(store.path)
        )
    return store


__all__ = [
    "CampaignStore",
    "as_campaign_store",
    "open_store",
    "resolve_store",
]
