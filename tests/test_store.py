"""The durable store: recorders, checkpoint markers, resume, projections.

The store contract under test, end to end:

* the SQLite recorder persists one globally ordered notification log of
  records and constant-size checkpoint markers, and reads it back
  identically after a reopen;
* ``ResultsStore.extend`` on a brand-new path writes the same header line
  ``write`` does, so every results file is self-describing (pinned by a
  byte-level round trip);
* an interrupted campaign resumed with ``resume=True`` skips the cells
  the store already holds, re-executes the rest, and ends bit-identical
  to an uninterrupted run — serial and process backends — while records
  of another campaign (other app count, condition or parameters) are
  refused before any cell runs;
* reports fold as *incremental* projections (only past-watermark
  notifications are consumed, counted and asserted) that match a full
  rebuild exactly, and the replayed figures are pinned by sha256;
* a plain JSONL results file is never a store: durable runs and store
  commands refuse it with exit 2 and write nothing, and ``store export``
  converts between the two formats;
* a store written before checkpoint markers shrank (schema-1 snapshots,
  ingested telemetry events, a ``telemetry`` projection row) still
  resumes, inspects, verifies and exports (``tests/data/legacy_store.sql``).
"""

import dataclasses
import hashlib
import json
import os
import sqlite3
from pathlib import Path

import pytest

from repro.campaign import (
    CampaignRunner,
    ProcessBackend,
    ResultsStore,
    Scenario,
    SerialBackend,
)
from repro.campaign.results import results_header
from repro.fleet import Fleet, get_fleet_scenario
from repro.store import (
    CampaignSnapshot,
    CampaignStore,
    DEFAULT_SNAPSHOT_EVERY,
    FigureProjection,
    FleetRollupProjection,
    KIND_EVENT,
    KIND_RECORD,
    KIND_SNAPSHOT,
    Notification,
    RecordSummaryProjection,
    ResumeMismatchError,
    SqliteRecorder,
    cell_key,
    default_projections,
    execute_with_store,
    is_sqlite_path,
    open_store,
    update_projections,
    verify_store_projections,
)
from repro.workloads.generator import Condition, WorkloadSpec

#: SQLite store suffixes: a store behaves the same under either.
SUFFIXES = ("sqlite", "db")


def _scenario(name: str = "storecase", sequences: int = 2) -> Scenario:
    return Scenario(
        name=name,
        workload=WorkloadSpec(
            Condition.STRESS, n_apps=3, sequence_count=sequences
        ),
        systems=("Baseline", "VersaSlot-OL"),
    )


@pytest.fixture(scope="module")
def campaign_records():
    """(cells, records) of one small deterministic campaign (4 cells)."""
    cells = CampaignRunner().cells_for(_scenario())
    return cells, SerialBackend().run(cells)


class InterruptingBackend:
    """Wraps a backend; simulates a crash after ``fail_after`` cells."""

    def __init__(self, inner, fail_after: int) -> None:
        self.inner = inner
        self.fail_after = fail_after
        self.executed = 0

    def run(self, cells):
        if self.executed >= self.fail_after:
            raise RuntimeError("simulated crash")
        self.executed += len(cells)
        return self.inner.run(cells)


def _dump(path):
    """A SQLite store's whole logical content, row by row."""
    conn = sqlite3.connect(path)
    try:
        return list(conn.iterdump())
    finally:
        conn.close()


def _files(directory):
    """Every file under ``directory`` with its bytes."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestRecorders:
    @pytest.mark.parametrize("suffix", SUFFIXES)
    def test_mixed_kind_roundtrip_survives_reopen(
        self, tmp_path, suffix, campaign_records
    ):
        _, records = campaign_records
        path = tmp_path / f"log.{suffix}"
        with open_store(path) as store:
            ids = store.append_records(records[:2])
            assert ids == [1, 2]
            store.record_snapshot(CampaignSnapshot(completed=2, covered_id=2))
            ids = store.append_records(records[2:])
            assert ids == [4, 5]
            before = [(n.id, n.kind, n.payload) for n in store.select()]
        with open_store(path) as store:
            after = [(n.id, n.kind, n.payload) for n in store.select()]
            assert after == before
            assert [n.id for n in store.select()] == [1, 2, 3, 4, 5]
            assert store.max_id() == 5
            assert store.counts() == {"record": 4, "snapshot": 1}
            # select honors (start, limit) over the global order
            window = store.select(start=2, limit=2)
            assert [n.id for n in window] == [2, 3]
            loaded = store.load()
            assert [r.to_dict() for r in loaded] == \
                [r.to_dict() for r in records]

    @pytest.mark.parametrize("suffix", SUFFIXES)
    def test_unknown_kind_rejected(self, tmp_path, suffix):
        with open_store(tmp_path / f"log.{suffix}") as store:
            with pytest.raises(ValueError, match="unknown notification kind"):
                store.recorder.append([("bogus", {})])

    def test_notification_validates_kind(self):
        with pytest.raises(ValueError):
            Notification(id=1, kind="bogus", payload={})

    def test_sqlite_sniffing(self, tmp_path):
        assert is_sqlite_path("results/x.sqlite")
        assert is_sqlite_path("results/x.db")
        assert not is_sqlite_path("results/x.jsonl")
        # no suffix hint: the file magic decides
        magic = tmp_path / "mystery"
        magic.write_bytes(b"SQLite format 3\x00" + b"\x00" * 16)
        assert is_sqlite_path(magic)
        # any other path is refused before a database is created under it
        with pytest.raises(ValueError, match="store export"):
            open_store(tmp_path / "x.jsonl")
        assert not (tmp_path / "x.jsonl").exists()


class TestResultsFileHeader:
    def test_extend_on_fresh_path_writes_the_same_header_as_write(
        self, tmp_path, campaign_records
    ):
        _, records = campaign_records
        written = ResultsStore(tmp_path / "written.jsonl")
        written.write(records)
        extended = ResultsStore(tmp_path / "extended.jsonl")
        extended.extend(records)
        assert written.path.read_bytes() == extended.path.read_bytes()
        first = json.loads(extended.path.read_text().splitlines()[0])
        assert first == results_header()
        assert [r.to_dict() for r in ResultsStore(extended.path).load()] == \
            [r.to_dict() for r in records]

    def test_appending_to_existing_file_writes_no_second_header(
        self, tmp_path, campaign_records
    ):
        _, records = campaign_records
        store = ResultsStore(tmp_path / "r.jsonl")
        store.extend(records[:1])
        store.extend(records[1:])
        lines = store.path.read_text().splitlines()
        headers = [ln for ln in lines if json.loads(ln) == results_header()]
        assert len(headers) == 1
        assert len(lines) == 1 + len(records)


class TestSnapshotsAndResume:
    def test_snapshot_roundtrip(self):
        snapshot = CampaignSnapshot(completed=2, covered_id=7)
        assert snapshot.to_dict() == {
            "schema": 2, "completed": 2, "covered_id": 7,
        }
        assert CampaignSnapshot.from_dict(snapshot.to_dict()) == snapshot
        # A schema-1 payload from an older store decodes to the same
        # marker: its count of distinct completed keys.
        legacy = {
            "schema": 1,
            "completed": ["a|b|seq0|seed1|shard-1", "a|c|seq0|seed1|shard-1",
                          "a|b|seq0|seed1|shard-1"],
            "digest": {"count": 3},
            "cells": [{"scenario": "a"}],
            "covered_id": 7,
        }
        assert CampaignSnapshot.from_dict(legacy) == snapshot

    @pytest.mark.parametrize("suffix", SUFFIXES)
    def test_snapshot_cadence_and_tail_bound(
        self, tmp_path, suffix, campaign_records
    ):
        cells, _ = campaign_records
        path = tmp_path / f"snap.{suffix}"
        with open_store(path) as store:
            outcome = execute_with_store(
                SerialBackend(), cells, store=store, snapshot_every=2
            )
            assert outcome.snapshots == 2
            counts = store.counts()
            assert counts["record"] == len(cells)
            assert counts["snapshot"] == 2
            snapshot = store.latest_snapshot()
            assert snapshot.completed == len(cells)
            # the newest marker is the log head and covers every record
            # before it: nothing lies past its watermark but itself
            assert snapshot.covered_id == store.max_id() - 1
            completed = store.completed_cells()
            assert set(completed) == {cell_key(c) for c in cells}

    @pytest.mark.parametrize("suffix", SUFFIXES)
    @pytest.mark.parametrize("jobs", (1, 2))
    def test_interrupted_then_resumed_is_bit_identical(
        self, tmp_path, suffix, jobs, campaign_records
    ):
        cells, clean_records = campaign_records
        clean_path = tmp_path / f"clean.{suffix}"
        with open_store(clean_path) as store:
            execute_with_store(
                SerialBackend(), cells, store=store, snapshot_every=2
            )

        resumed_path = tmp_path / f"resumed.{suffix}"
        store = open_store(resumed_path)
        crash = InterruptingBackend(SerialBackend(), fail_after=2)
        with pytest.raises(RuntimeError, match="simulated crash"):
            execute_with_store(
                crash, cells, store=store, snapshot_every=2
            )
        store.close()
        assert open_store(resumed_path).counts()["record"] == 2

        resume_backend = (
            SerialBackend() if jobs == 1 else ProcessBackend(jobs=jobs)
        )
        with open_store(resumed_path) as store:
            outcome = execute_with_store(
                resume_backend, cells, store=store,
                snapshot_every=2, resume=True,
            )
        assert outcome.resumed == 2
        assert outcome.executed == 2
        assert [r.to_dict() for r in outcome.records] == \
            [r.to_dict() for r in clean_records]
        with open_store(resumed_path) as a, open_store(clean_path) as b:
            assert [r.to_dict() for r in a.load()] == \
                [r.to_dict() for r in b.load()]
        # projections converge to the same state on both stores
        for path in (clean_path, resumed_path):
            with open_store(path) as store:
                assert verify_store_projections(store) == []

    def test_resume_skips_everything_on_a_complete_store(
        self, tmp_path, campaign_records
    ):
        cells, _ = campaign_records
        path = tmp_path / "done.sqlite"
        runner = CampaignRunner(store=str(path), snapshot_every=2)
        runner.run_cells(cells)
        before = _dump(path)
        again = CampaignRunner(store=str(path), resume=True)
        again.run_cells(cells)
        assert again.last_outcome.resumed == len(cells)
        assert again.last_outcome.executed == 0
        assert _dump(path) == before

    def test_resume_reexecutes_failed_cells(self, tmp_path, campaign_records):
        from repro.campaign import failure_record

        cells, _ = campaign_records
        path = tmp_path / "failed.sqlite"
        with open_store(path) as store:
            store.append_records(
                [failure_record(cells[0], "worker crashed")]
            )
            outcome = execute_with_store(
                SerialBackend(), cells, store=store, resume=True
            )
        assert outcome.resumed == 0
        assert outcome.executed == len(cells)
        assert not any(r.failed for r in outcome.records)

    def test_resume_rejects_duplicate_cells(self, tmp_path, campaign_records):
        cells, _ = campaign_records
        with open_store(tmp_path / "dup.sqlite") as store:
            with pytest.raises(ValueError, match="duplicate cells"):
                execute_with_store(
                    SerialBackend(), [cells[0], cells[0]],
                    store=store, resume=True,
                )

    @pytest.mark.parametrize("field, change", [
        ("n_apps", lambda cell: {
            "workload": dataclasses.replace(cell.workload, n_apps=5)}),
        ("condition", lambda cell: {
            "workload": dataclasses.replace(
                cell.workload, condition=Condition.LOOSE)}),
        ("fingerprint", lambda cell: {
            "params": cell.params.with_overrides(pcap_bandwidth_mbps=200.0)}),
    ], ids=["n_apps", "condition", "fingerprint"])
    def test_resume_refuses_another_campaigns_record(
        self, tmp_path, monkeypatch, campaign_records, field, change
    ):
        from repro.campaign import results

        cells, records = campaign_records
        path = tmp_path / "other.sqlite"
        with open_store(path) as store:
            store.append_records(records)
        before = _dump(path)
        # Only the last cell differs: every earlier one is checked and
        # reused first, and still nothing runs or lands.
        changed = [
            *cells[:-1],
            dataclasses.replace(cells[-1], **change(cells[-1])),
        ]
        fingerprinted = []
        fingerprint = results.fingerprint_parameters

        def counted_fingerprint(params):
            fingerprinted.append(params)
            return fingerprint(params)

        monkeypatch.setattr(
            results, "fingerprint_parameters", counted_fingerprint
        )
        backend = InterruptingBackend(SerialBackend(), fail_after=0)
        with open_store(path) as store:
            with pytest.raises(ResumeMismatchError) as refusal:
                execute_with_store(backend, changed, store=store, resume=True)
        assert str(refusal.value).startswith(
            f"cannot resume cell {cell_key(changed[-1])}: the store's "
            f"record has {field} "
        )
        assert _dump(path) == before
        # one fingerprint per distinct parameter set, not one per cell
        assert len(fingerprinted) == len({cell.params for cell in changed})

    def test_durability_features_require_a_store(self, campaign_records):
        cells, _ = campaign_records
        with pytest.raises(ValueError, match="need a persistent store"):
            execute_with_store(SerialBackend(), cells, resume=True)
        with pytest.raises(ValueError, match="snapshot_every"):
            execute_with_store(SerialBackend(), cells, snapshot_every=-1)

    def test_plain_path_stays_legacy_jsonl(self, tmp_path, campaign_records):
        # No durability flags -> a path resolves to the plain ResultsStore
        # (the results file is the only file the run leaves behind).
        cells, _ = campaign_records
        path = tmp_path / "legacy.jsonl"
        runner = CampaignRunner(store=str(path))
        assert isinstance(runner.store, ResultsStore)
        runner.run_cells(cells[:1])
        assert os.listdir(tmp_path) == ["legacy.jsonl"]
        # Asking for resume or snapshots names the fix instead; only a
        # SQLite path upgrades to the event store.
        with pytest.raises(ValueError, match="store export"):
            CampaignRunner(store=str(path), resume=True)
        with pytest.raises(ValueError, match="store export"):
            execute_with_store(SerialBackend(), cells,
                               store=ResultsStore(path), snapshot_every=1)
        assert os.listdir(tmp_path) == ["legacy.jsonl"]
        upgraded = CampaignRunner(store=str(tmp_path / "s.sqlite"),
                                  resume=True)
        assert isinstance(upgraded.store, CampaignStore)

    def test_default_snapshot_cadence_is_sane(self):
        assert DEFAULT_SNAPSHOT_EVERY >= 1


class TestProjections:
    @pytest.mark.parametrize("suffix", SUFFIXES)
    def test_incremental_fold_consumes_only_the_tail(
        self, tmp_path, suffix, campaign_records
    ):
        _, records = campaign_records
        path = tmp_path / f"proj.{suffix}"
        with open_store(path) as store:
            store.append_records(records[:3])
            first = RecordSummaryProjection().load(store)
            assert first.apply(store) == 3
            assert first.watermark == 3

            store.append_records(records[3:])
            second = RecordSummaryProjection().load(store)
            assert second.watermark == 3  # persisted state restored
            folded = second.apply(store)
            assert folded == len(records) - 3  # tail only, never the prefix
            assert second.last_fold_count == folded

            rebuilt = RecordSummaryProjection()
            rebuilt.rebuild(store)
            assert second.state_dict() == rebuilt.state_dict()
            assert second.render() == rebuilt.render()
            assert verify_store_projections(store) == []

    def test_summary_projection_state_survives_json(self, campaign_records):
        _, records = campaign_records
        projection = RecordSummaryProjection()
        for record in records:
            projection.fold_record(record)
        state = json.loads(json.dumps(projection.state_dict()))
        restored = RecordSummaryProjection()
        restored.restore_state(state)
        assert restored.render() == projection.render()

    def test_fleet_rollup_projection_matches_fleet_run(self, tmp_path):
        scenario = get_fleet_scenario("fleet-smoke")
        path = tmp_path / "fleet.sqlite"
        result = Fleet(scenario).run(store=str(path), snapshot_every=1)
        with open_store(path) as store:
            assert verify_store_projections(store) == []
            projection = FleetRollupProjection()
            projection.rebuild(store)
            per_shard, overall = projection.render_rollups()
        assert per_shard == result.rollup.per_shard
        assert overall == result.rollup.overall

    def test_update_projections_reports_folded_counts(
        self, tmp_path, campaign_records
    ):
        _, records = campaign_records
        with open_store(tmp_path / "u.sqlite") as store:
            store.append_records(records)
            folded = update_projections(store)
            assert set(folded) == {"summary", "fleet-rollup", "figures"}
            assert all(n == len(records) for n in folded.values())
            # idempotent: a second pass folds nothing
            assert all(
                n == 0 for n in update_projections(store).values()
            )

    @pytest.mark.parametrize("suffix", SUFFIXES)
    def test_update_projections_with_one_watermark_behind(
        self, tmp_path, suffix, campaign_records
    ):
        # update_projections selects and decodes the log once for all
        # projections; per-projection apply must fold the same counts and
        # persist the same states, even when the watermarks differ.
        _, records = campaign_records

        def staggered(name):
            store = open_store(tmp_path / f"{name}.{suffix}")
            store.append_records(records[:1])
            update_projections(store)
            store.append_records(records[1:2])
            FigureProjection().load(store).apply(store)  # runs ahead alone
            store.append_records(records[2:])
            return store

        with staggered("shared") as shared, staggered("apart") as apart:
            folded = update_projections(shared)
            expected = {
                projection.name: projection.load(apart).apply(apart)
                for projection in default_projections()
            }
            assert folded == expected
            assert folded["figures"] == len(records) - 2
            assert folded["summary"] == len(records) - 1
            for name in folded:
                assert shared.get_projection(name) == \
                    apart.get_projection(name)
            assert verify_store_projections(shared) == []


#: sha256 of the figure's field plus ``rendered`` in ``replay --figure F
#: --json`` (of ``rendered`` alone for the summary table) over one
#: 4-condition campaign (``campaign run fig5-<condition> --apps 4
#: --sequences 2``, all four appended to one results file), written
#: digest-only and with ``--raw-samples``.  Fig. 5 means are bit-identical
#: on both; Fig. 6 tails and the summary's percentiles are digest
#: quantiles on one and exact percentiles on the other.
FIGURE_DIGESTS = {
    ("digest", "fig5"): "f5f62f1f8aa9fc3f4beaf5d121edeff381115cb2abb168ce61992f4b1d89b24d",
    ("digest", "fig6"): "fe9dfd9b9962b0bca457eb74492f72201a3c3cd7f031a0ead776570925bdcff8",
    ("digest", "summary"): "54d64251c42602ebc8f4ed294de3bdd13b1c12552ae99dc1dea1e7329cc252d5",
    ("raw", "fig5"): "f5f62f1f8aa9fc3f4beaf5d121edeff381115cb2abb168ce61992f4b1d89b24d",
    ("raw", "fig6"): "776f07ce4f3d74c27dfdaff2d1574cef2aabcbcbcb9b6a9ebf6f34afd88773a1",
    ("raw", "summary"): "d5f0bf3846545c729428249812cb98c674d5bbb091bd5865b3000f214d0a94ed",
}


@pytest.fixture(scope="module")
def figure_campaigns(tmp_path_factory):
    """``{"digest"|"raw": results path}`` of the pinned 4-condition campaign."""
    from repro.cli import main

    directory = tmp_path_factory.mktemp("figures")
    paths = {}
    for samples in ("digest", "raw"):
        path = paths[samples] = directory / f"{samples}.jsonl"
        for condition in ("loose", "standard", "stress", "real-time"):
            argv = [
                "campaign", "run", f"fig5-{condition}", "--apps", "4",
                "--sequences", "2", "--out", str(path),
            ]
            assert main(argv + (["--raw-samples"] if samples == "raw" else [])) == 0
    return paths


class TestFigurePins:
    @pytest.mark.parametrize("samples, figure", sorted(FIGURE_DIGESTS))
    def test_replayed_figure_matches_pinned_digest(
        self, capsys, figure_campaigns, samples, figure
    ):
        from repro.cli import main

        path = str(figure_campaigns[samples])
        capsys.readouterr()
        assert main(["replay", path, "--figure", figure, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        if figure == "summary":
            text = payload["rendered"]
        else:
            field = "reductions" if figure == "fig5" else "relative_tails"
            text = json.dumps(
                {key: payload[key] for key in (field, "rendered")},
                sort_keys=True,
            )
        assert hashlib.sha256(text.encode()).hexdigest() == \
            FIGURE_DIGESTS[samples, figure]
        assert main(["replay", path, "--figure", figure]) == 0
        assert capsys.readouterr().out == payload["rendered"] + "\n"


class TestStoreCli:
    def _build_store(self, tmp_path, records):
        path = tmp_path / "cli.sqlite"
        with open_store(path) as store:
            store.append_records(records)
            update_projections(store)
        return path

    def test_inspect_json(self, tmp_path, capsys, campaign_records):
        from repro.cli import main

        _, records = campaign_records
        path = self._build_store(tmp_path, records)
        assert main(["store", "inspect", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"record": len(records)}
        assert payload["projections"]["summary"] == len(records)

    def test_verify_clean_and_corrupted(self, tmp_path, capsys,
                                        campaign_records):
        from repro.cli import main

        _, records = campaign_records
        path = self._build_store(tmp_path, records)
        assert main(["store", "verify", str(path)]) == 0
        assert main(["verify", "--store", str(path)]) == 0
        # a stale projection (right watermark, wrong state) must be caught
        with open_store(path) as store:
            store.set_projection(
                "summary", store.max_id(),
                RecordSummaryProjection().state_dict(),
            )
        assert main(["store", "verify", str(path)]) == 1
        assert "summary" in capsys.readouterr().err

    def test_export_converts_between_backends(self, tmp_path, capsys,
                                              campaign_records):
        from repro.cli import main

        _, records = campaign_records
        source = ResultsStore(tmp_path / "results.jsonl")
        source.write(records)
        dest = tmp_path / "converted.sqlite"
        assert main(["store", "export", str(source.path), str(dest)]) == 0
        with open_store(dest) as store:
            assert isinstance(store.recorder, SqliteRecorder)
            assert [r.to_dict() for r in store.load()] == \
                [r.to_dict() for r in records]
            assert verify_store_projections(store) == []
        assert main(["store", "verify", str(dest)]) == 0

    @pytest.mark.parametrize("argv, named", [
        (["store", "export", "a.sqlite", "b.sqlite"], "b.sqlite"),
        (["store", "export", "a.sqlite", "a.sqlite"], "a.sqlite"),
        (["store", "export", "a.sqlite", "b.jsonl"], "b.jsonl"),
    ], ids=["into-exported-store", "into-itself", "into-results-file"])
    def test_export_and_ingest_write_nothing_on_refusal(
        self, tmp_path, capsys, monkeypatch, campaign_records, argv, named
    ):
        from repro.cli import main

        _, records = campaign_records
        monkeypatch.chdir(tmp_path)
        self._build_store(tmp_path, records).rename(tmp_path / "a.sqlite")
        assert main(["store", "export", "a.sqlite", "b.sqlite"]) == 0
        ResultsStore(tmp_path / "b.jsonl").write(records)
        before = _files(tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("argv", [
        ["store", "inspect", "{results}"],
        ["store", "verify", "{results}"],
        ["verify", "--store", "{results}"],
    ], ids=["store-inspect", "store-verify", "verify-store"])
    def test_store_commands_refuse_a_results_file(
        self, tmp_path, capsys, campaign_records, argv
    ):
        from repro.cli import main

        _, records = campaign_records
        results = ResultsStore(tmp_path / "r.jsonl")
        results.write(records)
        before = _files(tmp_path)
        argv = [arg.format(results=results.path) for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "store export" in err
        assert _files(tmp_path) == before

    @pytest.mark.parametrize("argv", [
        ["campaign", "run", "smoke", "--resume"],
        ["campaign", "run", "smoke", "--snapshot-every", "1"],
        ["fleet", "run", "fleet-smoke", "--resume"],
        ["fleet", "run", "fleet-smoke", "--snapshot-every", "1"],
    ])
    def test_durable_run_refuses_a_jsonl_out(self, tmp_path, capsys, argv):
        from repro.cli import main

        out = tmp_path / "out.jsonl"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --") and err.count("\n") == 1
        assert "needs a SQLite store" in err and "store export" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, name", [
        (["campaign", "run", "smoke"], "smoke"),
        (["fleet", "run", "fleet-smoke"], "fleet-smoke"),
    ])
    def test_resume_without_out_writes_a_sqlite_store(
        self, tmp_path, capsys, monkeypatch, argv, name
    ):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--resume"]) == 0
        assert f"appended to results/{name}.sqlite" in capsys.readouterr().out
        assert not (tmp_path / "results" / f"{name}.jsonl").exists()
        with open_store(tmp_path / "results" / f"{name}.sqlite") as store:
            assert store.counts()["record"] > 0

    @pytest.mark.parametrize("durable, plain", [
        (["campaign", "run", "smoke", "--resume"],
         ["campaign", "run", "smoke"]),
        (["fleet", "run", "fleet-chaos", "--resume", "--jobs", "2"],
         ["fleet", "run", "fleet-chaos"]),
    ], ids=["campaign-smoke", "fleet-chaos"])
    def test_sqlite_export_is_byte_identical_to_a_plain_run(
        self, tmp_path, capsys, durable, plain
    ):
        from repro.cli import main

        store = tmp_path / "durable.sqlite"
        exported = tmp_path / "exported.jsonl"
        plain_out = tmp_path / "plain.jsonl"
        assert main([*durable, "--out", str(store)]) == 0
        assert main(["store", "export", str(store), str(exported)]) == 0
        assert "leaving out 0 event(s)" in capsys.readouterr().out
        assert main([*plain, "--out", str(plain_out)]) == 0
        assert exported.read_bytes() == plain_out.read_bytes()

    def test_store_ingest_is_gone(self, capsys):
        """Event logs stay replayable with ``replay LOG``; the store keeps
        what a command reads."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["store", "ingest", "s.sqlite", "events.jsonl"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, done, line", [
        (["campaign", "run", "smoke"], 1,
         "resume: 1 cell(s) already persisted, 2 executed this run\n\n"
         "2 records appended to "),
        (["fleet", "run", "fleet-smoke"], 1,
         "resume: 1 shard cell(s) already persisted, 1 executed this run\n\n"
         "1 shard records appended to "),
    ], ids=["campaign", "fleet"])
    def test_resume_counts_only_the_records_it_appended(
        self, tmp_path, capsys, argv, done, line
    ):
        from repro.campaign import get_scenario
        from repro.cli import main

        if argv[0] == "campaign":
            cells = CampaignRunner().cells_for(get_scenario("smoke"))
        else:
            cells = Fleet(get_fleet_scenario("fleet-smoke")).cells()
        path = tmp_path / "partial.sqlite"
        with open_store(path) as store:
            execute_with_store(SerialBackend(), cells[:done], store=store)
        assert main([*argv, "--resume", "--out", str(path)]) == 0
        assert line + str(path) in capsys.readouterr().out
        with open_store(path) as store:
            assert store.counts()["record"] == len(cells)

    @pytest.mark.parametrize("argv, first, second", [
        (["campaign", "run", "smoke"], ["--apps", "4"], ["--apps", "8"]),
        (["fleet", "run", "fleet-smoke"], ["--shards", "2"],
         ["--shards", "4"]),
    ], ids=["campaign-apps", "fleet-shards"])
    def test_resume_refuses_another_campaigns_store(
        self, tmp_path, capsys, argv, first, second
    ):
        from repro.cli import main

        path = tmp_path / "s.sqlite"
        assert main([*argv, "--resume", "--out", str(path), *first]) == 0
        before = _dump(path)
        capsys.readouterr()
        assert main([*argv, "--resume", "--out", str(path), *second]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot resume cell ")
        assert captured.err.count("\n") == 1
        assert "the store's record has n_apps " in captured.err
        assert _dump(path) == before

    def test_replay_reads_sqlite_stores(self, tmp_path, capsys,
                                        campaign_records):
        from repro.cli import main

        _, records = campaign_records
        path = self._build_store(tmp_path, records)
        assert main(["replay", str(path)]) == 0
        assert "Campaign records" in capsys.readouterr().out
        assert main(["replay", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == len(records)
        assert payload["skipped_lines"] == 0

    def test_replay_missing_store_is_operator_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["replay", str(tmp_path / "absent.sqlite")]) == 2
        assert main(["store", "inspect", str(tmp_path / "nope.sqlite")]) == 2

    @pytest.mark.parametrize(
        "command", [["replay"], ["store", "inspect"], ["store", "verify"]]
    )
    def test_non_sqlite_file_is_operator_error(self, tmp_path, capsys,
                                               command):
        from repro.cli import main

        path = tmp_path / "text.sqlite"
        path.write_text('{"schema": "repro-results/1"}\n')
        assert main([*command, str(path)]) == 2
        err = capsys.readouterr().err
        assert "file is not a database" in err
        assert str(path) in err

    def test_fig8_out_honors_the_sqlite_suffix(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "fig8.sqlite"
        assert main(["fig8", "--apps", "8", "--out", str(path)]) == 0
        assert path.read_bytes().startswith(b"SQLite format 3\x00")
        with open_store(path) as store:
            assert store.counts() == {"record": 2}
        assert main(["replay", str(path)]) == 0


def _edit_sqlite(path, edit):
    conn = sqlite3.connect(path)
    with conn:
        edit(conn)
    conn.close()


def _corrupt_summary_shape(path):
    _edit_sqlite(path, lambda conn: conn.execute(
        "UPDATE projections SET state = ? WHERE name = 'summary'",
        (json.dumps({"groups": 5}),),
    ))


def _corrupt_rollup_without_overall(path):
    def edit(conn):
        (state,) = conn.execute(
            "SELECT state FROM projections WHERE name = 'fleet-rollup'"
        ).fetchone()
        state = json.loads(state)
        del state["overall"]
        conn.execute(
            "UPDATE projections SET state = ? WHERE name = 'fleet-rollup'",
            (json.dumps(state),),
        )

    _edit_sqlite(path, edit)


def _corrupt_snapshot_shape(path):
    def edit(conn):
        nid, payload = conn.execute(
            "SELECT id, payload FROM notifications WHERE kind = 'snapshot' "
            "ORDER BY id DESC LIMIT 1"
        ).fetchone()
        payload = json.loads(payload)
        payload["completed"] = "5"
        conn.execute(
            "UPDATE notifications SET payload = ? WHERE id = ?",
            (json.dumps(payload), nid),
        )

    _edit_sqlite(path, edit)


def _corrupt_summary_json(path):
    _edit_sqlite(path, lambda conn: conn.execute(
        "UPDATE projections SET state = 'not json' WHERE name = 'summary'"
    ))


_COMMANDS = {
    "store-verify": ("store", "verify"),
    "verify-store": ("verify", "--store"),
    "store-inspect": ("store", "inspect"),
    "fleet-resume": ("fleet", "run", "fleet-smoke", "--snapshot-every", "1",
                     "--resume", "--out"),
}

_MALFORMED = [
    pytest.param(corrupt, named, command, id=f"{tag}-{command}")
    for tag, corrupt, named, commands in (
        ("summary-shape", _corrupt_summary_shape, "'summary'",
         ("store-verify", "verify-store", "fleet-resume")),
        ("rollup-without-overall", _corrupt_rollup_without_overall,
         "'fleet-rollup'", ("store-verify", "verify-store", "fleet-resume")),
        ("snapshot-shape", _corrupt_snapshot_shape, "'completed'",
         ("store-verify", "verify-store", "store-inspect", "fleet-resume")),
        ("summary-not-json", _corrupt_summary_json, "'summary'",
         ("fleet-resume",)),
    )
    for command in commands
]


class TestMalformedStore:
    """Hand-edited store content is an operator error, never a traceback."""

    @pytest.mark.parametrize("corrupt, named, command", _MALFORMED)
    def test_exits_2_naming_the_bad_part(
        self, tmp_path, capsys, corrupt, named, command
    ):
        from repro.cli import main

        path = tmp_path / "fleet.sqlite"
        with open_store(path) as store:
            Fleet(get_fleet_scenario("fleet-smoke")).run(
                store=store, snapshot_every=1
            )
        corrupt(path)
        capsys.readouterr()
        assert main([*_COMMANDS[command], str(path)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith("error: ") and named in err


class TestStoreAudit:
    """``check_store``'s marker check: one pass, same findings."""

    @pytest.mark.parametrize("late_record_before_snapshot", (True, False))
    def test_snapshot_key_recorded_past_its_watermark_is_flagged(
        self, tmp_path, campaign_records, late_record_before_snapshot
    ):
        from repro.verify.oracle import check_store

        _, records = campaign_records
        early, late = records[0], records[1]
        with open_store(tmp_path / "late.sqlite") as store:
            store.append_records([early])
            if late_record_before_snapshot:
                store.append_records([late])
            # counts both cells, but covers only the first record
            store.record_snapshot(CampaignSnapshot(completed=2, covered_id=1))
            if not late_record_before_snapshot:
                store.append_records([late])
            update_projections(store)
            findings = check_store(store)
        snapshot_id = 3 if late_record_before_snapshot else 2
        assert findings == [
            f"snapshot (notification {snapshot_id}) claims 2 completed "
            "cell(s), but only 1 have a successful record at or before id 1"
        ]

    def test_snapshot_covering_itself_is_flagged(
        self, tmp_path, campaign_records
    ):
        from repro.verify.oracle import check_store

        _, records = campaign_records
        with open_store(tmp_path / "ahead.sqlite") as store:
            store.append_records(records[:1])
            store.record_snapshot(CampaignSnapshot(completed=1, covered_id=2))
            update_projections(store)
            assert check_store(store) == [
                "snapshot (notification 2) covers id 2, which is not below "
                "its own"
            ]

    def test_snapshot_backed_within_its_watermark_is_clean(
        self, tmp_path, campaign_records
    ):
        from repro.verify.oracle import check_store

        _, records = campaign_records
        with open_store(tmp_path / "backed.sqlite") as store:
            # a repeated cell is one distinct key, so it backs nothing extra
            store.append_records([*records, records[0]])
            store.record_snapshot(CampaignSnapshot(
                completed=len(records), covered_id=store.max_id(),
            ))
            update_projections(store)
            assert check_store(store) == []


#: A store written before checkpoint markers shrank, as an ``iterdump``
#: SQL text dump: ``fleet run fleet-smoke --snapshot-every 1 --events-dir
#: DIR``, then ``store ingest`` of that run's admission log.  It holds two
#: records, two schema-1 snapshots listing keys, digests and cell specs,
#: eight event rows, and four projection rows (``telemetry`` among them)
#: whose watermarks stop before the events.
LEGACY_STORE = Path(__file__).parent / "data" / "legacy_store.sql"
#: sha256 of that store's ``store export`` to JSONL, taken with the code
#: that wrote it.
LEGACY_EXPORT_SHA256 = (
    "a12430d075f887f931b96864c5a13769aa7532c0cd1e72ec439c07c28519d0a0"
)


@pytest.fixture
def legacy_store(tmp_path):
    path = tmp_path / "legacy.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(LEGACY_STORE.read_text())
    conn.close()
    return path


class TestLegacyStore:
    """Old stores keep working: their extra rows are read and skipped."""

    def test_resume_executes_and_appends_nothing(self, legacy_store, capsys):
        from repro.cli import main

        with open_store(legacy_store) as store:
            before = [(n.id, n.kind, n.payload) for n in store.select()]
        argv = ["fleet", "run", "fleet-smoke", "--resume", "--out",
                str(legacy_store)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resume: 2 shard cell(s) already persisted, 0 executed" in out
        with open_store(legacy_store) as store:
            assert [(n.id, n.kind, n.payload) for n in store.select()] == \
                before

    def test_inspect_and_verify_pass(self, legacy_store, capsys):
        from repro.cli import main

        assert main(["store", "verify", str(legacy_store)]) == 0
        capsys.readouterr()
        assert main(["store", "inspect", str(legacy_store), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"event": 8, "record": 2, "snapshot": 2}
        assert payload["snapshot"] == {"completed_cells": 2, "covered_id": 3}
        # the old ``telemetry`` projection row is ignored
        assert payload["projections"] == {
            "figures": 4, "fleet-rollup": 4, "summary": 4,
        }
        assert main(["store", "inspect", str(legacy_store)]) == 0
        assert "2 cell(s) through notification 3" in capsys.readouterr().out

    def test_export_to_jsonl_is_byte_identical_to_before(
        self, legacy_store, tmp_path, capsys
    ):
        from repro.cli import main

        dest = tmp_path / "legacy.jsonl"
        assert main(["store", "export", str(legacy_store), str(dest)]) == 0
        assert hashlib.sha256(dest.read_bytes()).hexdigest() == \
            LEGACY_EXPORT_SHA256

    def test_export_to_sqlite_copies_the_records(
        self, legacy_store, tmp_path, capsys
    ):
        from repro.cli import main

        dest = tmp_path / "copy.sqlite"
        assert main(["store", "export", str(legacy_store), str(dest)]) == 0
        assert capsys.readouterr().out == (
            "exported 2 record(s) to a store, leaving out 8 event(s) and 2 "
            f"snapshot(s): {legacy_store} -> {dest}\n"
        )
        with open_store(dest) as copy, open_store(legacy_store) as source:
            assert copy.counts() == {"record": 2}
            assert [r.to_dict() for r in copy.load()] == \
                [r.to_dict() for r in source.load()]
            assert verify_store_projections(copy) == []


class TestEventNotificationKinds:
    def test_kind_constants_are_the_wire_values(self):
        assert KIND_RECORD == "record"
        assert KIND_EVENT == "event"
        assert KIND_SNAPSHOT == "snapshot"
