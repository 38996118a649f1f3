"""Durable store: recorder, notification log, checkpoint markers, projections.

The persistence spine of the repo: every campaign record and checkpoint
marker flows through one monotonically numbered notification log in a
single-file SQLite database (:class:`SqliteRecorder`).  Plain
``results/*.jsonl`` files stay the records-only format of runs that ask
for no durability (:class:`~repro.campaign.results.ResultsStore`).  On
top of the log: ``--resume`` from the records themselves
(:mod:`repro.store.resume`), constant-size :class:`CampaignSnapshot`
progress markers, and reports as watermark-tracked projections
(:mod:`repro.store.projections`).
"""

from .campaign_store import (
    CampaignStore,
    as_campaign_store,
    open_store,
    resolve_store,
)
from .notification import (
    KIND_EVENT,
    KIND_RECORD,
    KIND_SNAPSHOT,
    NOTIFICATION_KINDS,
    Notification,
    StoreFormatError,
)
from .projections import (
    FigureProjection,
    FleetRollupProjection,
    Projection,
    RecordSummaryProjection,
    default_projections,
    update_projections,
    verify_store_projections,
)
from .recorder import SqliteRecorder, is_sqlite_path
from .resume import (
    DEFAULT_SNAPSHOT_EVERY,
    ExecutionOutcome,
    ResumeMismatchError,
    execute_with_store,
)
from .snapshot import CampaignSnapshot, SNAPSHOT_SCHEMA, cell_key

__all__ = [
    "CampaignSnapshot",
    "CampaignStore",
    "DEFAULT_SNAPSHOT_EVERY",
    "ExecutionOutcome",
    "FigureProjection",
    "FleetRollupProjection",
    "KIND_EVENT",
    "KIND_RECORD",
    "KIND_SNAPSHOT",
    "NOTIFICATION_KINDS",
    "Notification",
    "Projection",
    "RecordSummaryProjection",
    "ResumeMismatchError",
    "SNAPSHOT_SCHEMA",
    "SqliteRecorder",
    "StoreFormatError",
    "as_campaign_store",
    "cell_key",
    "default_projections",
    "execute_with_store",
    "is_sqlite_path",
    "open_store",
    "resolve_store",
    "update_projections",
    "verify_store_projections",
]
