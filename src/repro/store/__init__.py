"""Durable event store: recorders, notification log, snapshots, projections.

The persistence spine of the repo (PR 9): every campaign record, telemetry
event and periodic snapshot flows through one monotonically numbered
notification log behind a pluggable :class:`EventRecorder` —
single-file SQLite (:class:`SqliteRecorder`) or the legacy campaign JSONL
format (:class:`JsonlRecorder`, bit-compatible with existing
``results/*.jsonl`` files).  On top of the log: ``--resume`` via
:class:`CampaignSnapshot` checkpoints (:mod:`repro.store.resume`) and
reports as watermark-tracked incremental projections
(:mod:`repro.store.projections`).
"""

from .campaign_store import (
    CampaignStore,
    RECORDER_BACKENDS,
    as_campaign_store,
    open_store,
)
from .notification import (
    KIND_EVENT,
    KIND_RECORD,
    KIND_SNAPSHOT,
    NOTIFICATION_KINDS,
    Notification,
    NotificationLog,
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
from .recorder import (
    EventRecorder,
    JsonlRecorder,
    SqliteRecorder,
    is_sqlite_path,
)
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
    "EventRecorder",
    "ExecutionOutcome",
    "FigureProjection",
    "FleetRollupProjection",
    "JsonlRecorder",
    "KIND_EVENT",
    "KIND_RECORD",
    "KIND_SNAPSHOT",
    "NOTIFICATION_KINDS",
    "Notification",
    "NotificationLog",
    "Projection",
    "RECORDER_BACKENDS",
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
    "update_projections",
    "verify_store_projections",
]
