"""Pinned store bytes and store fold work.

The persisted ``projections`` and ``notifications`` rows of two fleet
runs are pinned by sha256, so a change to how projections fold (live
pools, one state load per campaign) cannot move a stored byte unnoticed.
The work pins count, by monkeypatch, what a fold costs: folding
digest-only records serializes no digest, and a durable campaign reads
each built-in projection's persisted state once, however many chunks it
saves.  Production code carries no counter for either.
"""

import hashlib
import json
import sqlite3
from collections import Counter

import pytest

from repro.campaign import CampaignRunner, Scenario, SerialBackend
from repro.campaign.results import RunRecord
from repro.fleet import Fleet, get_fleet_scenario
from repro.fleet.fleet import rollup_records
from repro.store import (
    CampaignStore,
    FleetRollupProjection,
    default_projections,
    execute_with_store,
    open_store,
)
from repro.telemetry.digest import ResponseDigest, digest_of
from repro.workloads.generator import Condition, WorkloadSpec


def _sha256(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("scenario, snapshot_every, projections, notifications", [
    ("fleet-smoke", 1,
     "0deeb0723706929971d62db6766ffff2ef6a7ffde8766afc85b44b3113fd94c4",
     "6066f6b2656d1ff89bd730f8b092be0f5e572c8dcee696fe0bc91fe14780552e"),
    ("fleet-chaos", 3,
     "db87b254e8ae2b94797b255a0076d7c6c8ad971071e89de56051544cf331ee11",
     "07312001e2bc9289d9b3f812511c9a0877a8e3f521cd63c1a81909e0c940301c"),
])
def test_persisted_rows_are_byte_pinned(
    tmp_path, scenario, snapshot_every, projections, notifications
):
    path = tmp_path / f"{scenario}.sqlite"
    Fleet(get_fleet_scenario(scenario)).run(
        store=str(path), snapshot_every=snapshot_every
    )
    conn = sqlite3.connect(path)
    try:
        projection_rows = conn.execute(
            "SELECT name, watermark, state FROM projections ORDER BY name"
        ).fetchall()
        notification_rows = conn.execute(
            "SELECT id, kind, payload FROM notifications ORDER BY id"
        ).fetchall()
    finally:
        conn.close()
    assert [row[0] for row in projection_rows] == sorted(
        projection.name for projection in default_projections()
    )
    assert _sha256(projection_rows) == projections
    assert _sha256(notification_rows) == notifications


def test_rollup_fold_serializes_no_digest(monkeypatch):
    # Each fleet record folds into its shard's pool and the overall pool;
    # the live pools merge the record's digest without re-encoding either.
    records = [
        RunRecord(
            scenario="pins", system="VersaSlot-OL", condition="Standard",
            sequence_index=0, seed=seed, n_apps=2, makespan_ms=10.0 + seed,
            shard=seed % 3,
            response_digest=digest_of([1.0 + seed, 2.5, 7.0 * seed]).to_dict(),
        )
        for seed in range(12)
    ]
    calls = Counter()
    to_dict = ResponseDigest.to_dict

    def counted_to_dict(self):
        calls["to_dict"] += 1
        return to_dict(self)

    monkeypatch.setattr(ResponseDigest, "to_dict", counted_to_dict)
    projection = FleetRollupProjection()
    for record in records:
        projection.fold_record(record)
    per_shard, overall = projection.render_rollups()
    rollup = rollup_records(get_fleet_scenario("fleet-smoke"), records)
    assert calls["to_dict"] == 0
    assert overall.runs == len(records) and len(per_shard) == 3
    assert rollup.overall == overall and rollup.per_shard == per_shard


def test_durable_campaign_loads_each_projection_once(monkeypatch, tmp_path):
    cells = CampaignRunner().cells_for(Scenario(
        name="pins",
        workload=WorkloadSpec(Condition.STRESS, n_apps=3, sequence_count=2),
        systems=("Baseline", "VersaSlot-OL"),
    ))
    loads, saves = Counter(), Counter()
    get_projection = CampaignStore.get_projection
    set_projection = CampaignStore.set_projection

    def counted_get_projection(self, name):
        loads[name] += 1
        return get_projection(self, name)

    def counted_set_projection(self, name, watermark, state):
        saves[name] += 1
        set_projection(self, name, watermark, state)

    monkeypatch.setattr(CampaignStore, "get_projection", counted_get_projection)
    monkeypatch.setattr(CampaignStore, "set_projection", counted_set_projection)
    with open_store(tmp_path / "pins.sqlite") as store:
        outcome = execute_with_store(
            SerialBackend(), cells, store=store, snapshot_every=1
        )
    names = [projection.name for projection in default_projections()]
    assert outcome.snapshots == len(cells) == 4
    assert loads == {name: 1 for name in names}
    # every chunk advances (and saves) every projection
    assert saves == {name: len(cells) for name in names}
