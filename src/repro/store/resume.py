"""Durable campaign execution: chunked appends, checkpoint markers, resume.

:func:`execute_with_store` is the one orchestration path between "a list
of campaign cells" and "records durably in a store".  It appends results
in cell order in chunks of ``snapshot_every``, appends a constant-size
:class:`~repro.store.snapshot.CampaignSnapshot` marker after each chunk,
keeps the built-in projections folded up to the log head, and — under
``resume`` — reuses the persisted successful record of every cell the
store already holds, after checking that the record belongs to this
campaign.  Because cells are deterministic and independent, and records
are always appended in cell order, an interrupted-then-resumed campaign
produces a byte-identical results file (and equal rollups/reports) to an
uninterrupted one.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Sequence

from .campaign_store import CampaignStore, resolve_store
from .notification import StoreFormatError
from .snapshot import CampaignSnapshot, cell_key

#: Default checkpoint cadence (cells per chunk) for the CLI surface.
DEFAULT_SNAPSHOT_EVERY = 25


class ResumeMismatchError(StoreFormatError):
    """A persisted record does not match the cell resuming it.

    The store holds a record with the cell's key (scenario, system,
    sequence, seed, shard) but another app count, condition or parameter
    fingerprint: it was written by a different campaign (other
    ``--apps``, ``--shards`` or overrides), and reusing it would mix two
    campaigns' numbers silently.
    """


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
    #: Checkpoint markers appended this call.
    snapshots: int


def _resumable(cells: Sequence, keys: List[str], store) -> Dict[int, object]:
    """Cell index -> persisted record, for every cell the store completed.

    Each record must agree with its cell on ``n_apps``, ``condition`` and
    the parameter fingerprint (computed once per distinct parameter set),
    else :class:`ResumeMismatchError` names the cell key and the field.
    """
    from ..campaign.backend import cell_outline  # lazy: avoids a cycle
    from ..campaign.results import fingerprint_parameters

    completed = store.completed_cells()
    fingerprints: Dict[object, str] = {}
    reused: Dict[int, object] = {}
    for index, key in enumerate(keys):
        record = completed.get(key)
        if record is None:
            continue
        cell = cells[index]
        if cell.params not in fingerprints:
            fingerprints[cell.params] = fingerprint_parameters(cell.params)
        n_apps, condition = cell_outline(cell)
        for field, expected in (
            ("n_apps", n_apps),
            ("condition", condition),
            ("fingerprint", fingerprints[cell.params]),
        ):
            persisted = getattr(record, field)
            if persisted != expected:
                raise ResumeMismatchError(
                    f"cannot resume cell {key}: the store's record has "
                    f"{field} {persisted!r} but this campaign's cell has "
                    f"{expected!r}; resume with the options that wrote the "
                    "store, or write to a new store"
                )
        reused[index] = record
    return reused


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
    path; checkpoints and resume need a :class:`CampaignStore`, and
    asking for them without one is an error rather than a silent no-op.
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
    results: Dict[int, object] = {}
    if resume:
        if len(set(keys)) != len(keys):
            raise ValueError(
                "cannot resume: the campaign enumerates duplicate cells "
                "(same scenario/system/sequence/seed/shard); matching "
                "persisted records to cells would be ambiguous"
            )
        results = _resumable(cells, keys, store)
    pending = [index for index in range(len(cells)) if index not in results]
    resumed = len(results)
    # Keys of the cells with a successful record so far: what a marker
    # counts.
    succeeded = {keys[index] for index in results}

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
                if not record.failed:
                    succeeded.add(keys[index])
            # Records land before the marker that counts them: a crash
            # between the two appends only loses the marker, never work.
            store.append_records(chunk_records)
            if snapshot_every > 0:
                store.record_snapshot(
                    CampaignSnapshot(
                        completed=len(succeeded), covered_id=store.max_id()
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
    "ResumeMismatchError",
    "execute_with_store",
]
