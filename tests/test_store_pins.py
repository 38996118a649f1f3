"""Pinned store bytes and store fold work.

Three pins per fleet run.  The ``record`` notification rows and the
``summary``, ``fleet-rollup`` and ``figures`` projection rows are pinned
by sha256 as the code wrote them before checkpoint markers shrank: they
fold only records, and markers still take one notification id each and
advance the watermarks, so neither may move.  The marker rows are pinned
by sha256 too, and each marker payload must stay within a constant size
whatever the cell count.  The work pins count, by monkeypatch, what a
fold costs: folding digest-only records serializes no digest, and a
durable campaign reads each built-in projection's persisted state once,
however many chunks it saves.  Production code carries no counter for
either.
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
    CampaignSnapshot,
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


#: The pinned runs: (fleet scenario, ``snapshot_every``).
RUNS = [("fleet-smoke", 1), ("fleet-chaos", 3)]
RECORD_PINS = {
    ("fleet-smoke", 1):
        "afa2e97fff63f9f4ac362243df0538cba42fcf22e37640972b757ae81551f406",
    ("fleet-chaos", 3):
        "3f0cbd0ebcb758c54217ac4b9ddb79a10d9c28521bfbea22104fda0aec965b96",
}
PROJECTION_PINS = {
    ("fleet-smoke", 1):
        "910ecf87261789b2ecc76561dfaa79e47740fac0d59013880f5b915ace1f6436",
    ("fleet-chaos", 3):
        "ea639a65a8c51f4a7af97129ddcbd291ec13afd98b49d27966869c4c59b4ed69",
}
MARKER_PINS = {
    ("fleet-smoke", 1):
        "37451f367687b75252d9a713b96ee8bde8a3b7d48ac726a8df68929138fefc36",
    ("fleet-chaos", 3):
        "e5e36a286eb81d43467a949a30b730753db00a274318e8de43f12282f23290df",
}
#: Bound on one marker payload: ``{"completed": N, "covered_id": N,
#: "schema": 2}`` with ten-digit counts takes 64 bytes.
MARKER_MAX_BYTES = 64


@pytest.fixture(scope="module", params=RUNS, ids="{0[0]}-{0[1]}".format)
def pinned_rows(request, tmp_path_factory):
    """``(run, rows)``: one pinned run's record, marker and projection rows."""
    scenario, snapshot_every = request.param
    path = tmp_path_factory.mktemp("pins") / f"{scenario}.sqlite"
    Fleet(get_fleet_scenario(scenario)).run(
        store=str(path), snapshot_every=snapshot_every
    )
    conn = sqlite3.connect(path)
    try:
        rows = {
            kind: conn.execute(
                "SELECT id, kind, payload FROM notifications WHERE kind = ? "
                "ORDER BY id", (kind,),
            ).fetchall()
            for kind in ("record", "snapshot")
        }
        rows["projections"] = conn.execute(
            "SELECT name, watermark, state FROM projections WHERE name IN "
            "('summary', 'fleet-rollup', 'figures') ORDER BY name"
        ).fetchall()
    finally:
        conn.close()
    return request.param, rows


def test_record_rows_are_byte_pinned(pinned_rows):
    run, rows = pinned_rows
    assert _sha256(rows["record"]) == RECORD_PINS[run]


def test_projection_rows_are_byte_pinned(pinned_rows):
    run, rows = pinned_rows
    assert [row[0] for row in rows["projections"]] == \
        ["figures", "fleet-rollup", "summary"]
    assert _sha256(rows["projections"]) == PROJECTION_PINS[run]


def test_marker_rows_are_pinned_and_constant_size(pinned_rows):
    run, rows = pinned_rows
    assert _sha256(rows["snapshot"]) == MARKER_PINS[run]
    assert all(
        len(payload) <= MARKER_MAX_BYTES for _, _, payload in rows["snapshot"]
    )
    largest = CampaignSnapshot(completed=10**10 - 1, covered_id=10**10 - 1)
    assert len(json.dumps(largest.to_dict(), sort_keys=True)) <= \
        MARKER_MAX_BYTES


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
