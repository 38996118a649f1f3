"""Durable event store: recorder, notification log, snapshots, projections.

The persistence spine of the repo: every campaign record, telemetry event
and periodic snapshot flows through one monotonically numbered
notification log in a single-file SQLite database
(:class:`SqliteRecorder`).  Plain ``results/*.jsonl`` files stay the
records-only format of runs that ask for no durability
(:class:`~repro.campaign.results.ResultsStore`).  On top of the log:
``--resume`` via :class:`CampaignSnapshot` checkpoints
(:mod:`repro.store.resume`) and reports as watermark-tracked incremental
projections (:mod:`repro.store.projections`).
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
    TelemetryCounterProjection,
    default_projections,
    update_projections,
    verify_store_projections,
)
from .recorder import SqliteRecorder, is_sqlite_path
from .resume import (
    DEFAULT_SNAPSHOT_EVERY,
    ExecutionOutcome,
    execute_with_store,
)
from .snapshot import CampaignSnapshot, SNAPSHOT_SCHEMA, cell_key, cell_spec

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
    "SNAPSHOT_SCHEMA",
    "SqliteRecorder",
    "StoreFormatError",
    "TelemetryCounterProjection",
    "as_campaign_store",
    "cell_key",
    "cell_spec",
    "default_projections",
    "execute_with_store",
    "is_sqlite_path",
    "open_store",
    "resolve_store",
    "update_projections",
    "verify_store_projections",
]
