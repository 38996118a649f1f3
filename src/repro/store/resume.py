"""Snapshot-aware campaign execution: chunked appends, checkpoints, resume.

:func:`execute_with_store` is the one orchestration path between "a list
of campaign cells" and "records durably in a store".  It appends results
in cell order in chunks of ``snapshot_every``, records a
:class:`~repro.store.snapshot.CampaignSnapshot` after each chunk, keeps
the built-in projections folded up to the log head, and — under
``resume`` — skips every cell the store already holds a successful record
for.  Because cells are deterministic and independent, and records are
always appended in cell order, an interrupted-then-resumed campaign
produces a byte-identical results file (and equal rollups/reports) to an
uninterrupted one.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..telemetry.digest import ResponseDigest
from .campaign_store import CampaignStore, resolve_store
from .projections import fold_responses
from .snapshot import CampaignSnapshot, cell_key, cell_spec

#: Default checkpoint cadence (cells per snapshot) for the CLI surface.
DEFAULT_SNAPSHOT_EVERY = 25


@dataclass
class ExecutionOutcome:
    """What :func:`execute_with_store` did."""

    #: One record per input cell, in cell order (resumed cells carry the
    #: previously persisted record).
    records: List
    #: Cells skipped because the store already held their record.
    resumed: int
    #: Cells actually executed by the backend this call.
    executed: int
    #: Snapshots recorded this call.
    snapshots: int


def execute_with_store(
    backend,
    cells: Sequence,
    store=None,
    snapshot_every: int = 0,
    resume: bool = False,
) -> ExecutionOutcome:
    """Run ``cells`` through ``backend`` with durable, resumable persistence.

    ``store`` is None (no persistence) or anything
    :func:`~repro.store.campaign_store.resolve_store` accepts.  A plain
    :class:`~repro.campaign.results.ResultsStore` takes the single-append
    path; snapshots and resume need a :class:`CampaignStore`, and asking
    for them without one is an error rather than a silent no-op.
    """
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be >= 0, got {snapshot_every}")
    cells = list(cells)
    store = resolve_store(store, resume, snapshot_every)

    if not isinstance(store, CampaignStore):
        # Plain path: one backend call, one append to the results file.
        records = backend.run(cells)
        if store is not None:
            store.extend(records)
        return ExecutionOutcome(
            records=records, resumed=0, executed=len(cells), snapshots=0
        )

    # The built-in projections restore their persisted state once, up
    # front (a malformed store fails before any cell runs), and the same
    # objects then fold each chunk's notifications.  Imported at call
    # time so a wrapper installed on ``update_projections`` (the perfbench
    # tracer's ``store.projection`` span) sees every fold.
    from .projections import default_projections, update_projections

    projections = [
        projection.load(store) for projection in default_projections()
    ]

    keys = [cell_key(cell) for cell in cells]
    completed: Dict[str, object] = {}
    if resume:
        if len(set(keys)) != len(keys):
            raise ValueError(
                "cannot resume: the campaign enumerates duplicate cells "
                "(same scenario/system/sequence/seed/shard); matching "
                "persisted records to cells would be ambiguous"
            )
        completed, _ = store.completed_cells()

    results: Dict[int, object] = {}
    pending: List[int] = []
    for index, key in enumerate(keys):
        if resume and key in completed:
            results[index] = completed[key]
        else:
            pending.append(index)
    resumed = len(cells) - len(pending)

    chunk_size = snapshot_every if snapshot_every > 0 else len(pending)
    snapshots = 0
    # One backend scope over every pending cell: a pooled backend keeps
    # its workers simulating later chunks while this loop persists the
    # current one.
    scope = getattr(backend, "scope", None)
    with scope([cells[i] for i in pending]) if scope else nullcontext():
        for at in range(0, len(pending), max(chunk_size, 1)):
            chunk = pending[at : at + chunk_size]
            chunk_records = backend.run([cells[i] for i in chunk])
            for index, record in zip(chunk, chunk_records):
                results[index] = record
            # Records land before the snapshot that covers them: a crash
            # between the two appends only loses the checkpoint, never
            # work — resume's tail scan re-derives the uncovered records.
            store.append_records(chunk_records)
            if snapshot_every > 0:
                done = [i for i in range(len(cells)) if i in results]
                merged = ResponseDigest()
                for i in done:
                    if not results[i].failed:
                        fold_responses(merged, results[i])
                store.record_snapshot(
                    CampaignSnapshot(
                        completed=tuple(
                            keys[i] for i in done if not results[i].failed
                        ),
                        digest=merged.to_dict(),
                        cells=tuple(
                            cell_spec(cells[i])
                            for i in done
                            if not results[i].failed
                        ),
                        covered_id=store.max_id(),
                    )
                )
                snapshots += 1
            update_projections(store, projections)

    if not pending:
        update_projections(store, projections)

    return ExecutionOutcome(
        records=[results[i] for i in range(len(cells))],
        resumed=resumed,
        executed=len(pending),
        snapshots=snapshots,
    )


__all__ = [
    "DEFAULT_SNAPSHOT_EVERY",
    "ExecutionOutcome",
    "execute_with_store",
]
