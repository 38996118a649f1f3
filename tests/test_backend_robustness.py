"""Campaign backend robustness: crashed workers, hung cells, retries.

A bare ``multiprocessing.Pool.map`` hangs forever when a worker dies
mid-task; the process backend must instead detect the death, retry the
cell deterministically in isolation, and surface a persistent failure as
a failure record so the healthy records survive.  The crash/hang cells
here override ``resolve_arrivals`` — the first cell-specific code a
worker runs — to simulate a worker dying inside the simulation.
"""

import dataclasses
import os
import time

import pytest

from repro.campaign import (
    CampaignRunner,
    ProcessBackend,
    ResultsStore,
    RunRecord,
    Scenario,
    SerialBackend,
    failure_record,
)
from repro.campaign.backend import CampaignCell
from repro.metrics.report import summarize_records
from repro.workloads.generator import Condition, WorkloadSpec

#: Flag-file path shared with forked workers (set per-test before the
#: pool forks; workers inherit the module state).
_FLAG = {"path": ""}


def _clone_as(cls, cell: CampaignCell):
    kwargs = {
        f.name: getattr(cell, f.name)
        for f in dataclasses.fields(cell)
        if f.init
    }
    return cls(**kwargs)


class CrashOnceCell(CampaignCell):
    """Dies abruptly on first execution, succeeds on the retry."""

    def resolve_arrivals(self):
        if not os.path.exists(_FLAG["path"]):
            open(_FLAG["path"], "w").close()
            os._exit(1)
        return super().resolve_arrivals()


class AlwaysCrashCell(CampaignCell):
    def resolve_arrivals(self):
        os._exit(1)


class HangCell(CampaignCell):
    def resolve_arrivals(self):
        time.sleep(300)
        return super().resolve_arrivals()


class RaisingCell(CampaignCell):
    def resolve_arrivals(self):
        raise ValueError("simulation-level error")


def _cells(n_sequences: int = 3):
    return CampaignRunner().cells_for(Scenario(
        name="robustness",
        workload=WorkloadSpec(
            Condition.LOOSE, n_apps=2, sequence_count=n_sequences
        ),
        systems=("FCFS",),
    ))


class TestProcessBackendRobustness:
    def test_crashed_worker_retries_and_matches_serial(self, tmp_path):
        cells = _cells()
        serial = SerialBackend().run(cells)
        _FLAG["path"] = str(tmp_path / "crashed-once")
        mixed = [_clone_as(CrashOnceCell, cells[0])] + cells[1:]
        records = ProcessBackend(jobs=2).run(mixed)
        assert [r.to_dict() for r in records] == [r.to_dict() for r in serial]

    def test_persistent_crash_surfaces_failure_record(self):
        cells = _cells()
        serial = SerialBackend().run(cells)
        mixed = [_clone_as(AlwaysCrashCell, cells[0])] + cells[1:]
        records = ProcessBackend(jobs=2).run(mixed)
        assert records[0].failed
        assert "crashed" in records[0].error
        assert records[0].response_times_ms == []
        # Sibling cells caught in the pool breakage still complete,
        # bit-identical to the serial reference.
        assert [r.to_dict() for r in records[1:]] == \
            [r.to_dict() for r in serial[1:]]

    def test_hung_worker_times_out_instead_of_hanging(self):
        cells = _cells()
        serial = SerialBackend().run(cells)
        mixed = [_clone_as(HangCell, cells[0])] + cells[1:]
        start = time.monotonic()
        records = ProcessBackend(jobs=2, timeout_s=2.0).run(mixed)
        elapsed = time.monotonic() - start
        assert elapsed < 60.0  # pool.map would wait on the sleep forever
        assert records[0].failed
        assert "timed out" in records[0].error
        assert [r.to_dict() for r in records[1:]] == \
            [r.to_dict() for r in serial[1:]]

    def test_simulation_exception_still_propagates(self):
        cells = _cells()
        mixed = [_clone_as(RaisingCell, cells[0])] + cells[1:]
        with pytest.raises(ValueError, match="simulation-level error"):
            ProcessBackend(jobs=2).run(mixed)

    def test_retry_budget_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            ProcessBackend(jobs=2, max_retries=-1)
        with pytest.raises(ValueError, match="jobs"):
            ProcessBackend(jobs=0)
        for timeout_s in (0, -1.0):
            with pytest.raises(ValueError, match="timeout_s must be > 0"):
                ProcessBackend(jobs=2, timeout_s=timeout_s)


class TestFailureRecords:
    def test_failure_record_round_trips_through_store(self, tmp_path):
        cell = _cells(1)[0]
        record = failure_record(cell, "worker process crashed")
        store = ResultsStore(tmp_path / "failed.jsonl")
        store.extend([record])
        loaded = store.load()
        assert len(loaded) == 1
        assert loaded[0].failed
        assert loaded[0].error == "worker process crashed"
        assert loaded[0].to_dict() == record.to_dict()

    def test_failure_record_never_resolves_arrivals(self):
        # Regenerating the sequence re-runs the code that crashed the
        # worker — this time in the orchestrator.  The record must be
        # built from spec metadata alone.
        cell = _clone_as(AlwaysCrashCell, _cells(1)[0])
        record = failure_record(cell, "boom")
        assert record.failed
        assert record.n_apps == cell.workload.n_apps

    def test_summary_excludes_failed_cells(self):
        cells = _cells(2)
        records = SerialBackend().run(cells)
        failed = failure_record(cells[0], "worker process crashed")
        table = summarize_records(records + [failed])
        assert "1 failed cell(s) excluded" in table
        clean = summarize_records(records)
        assert "failed" not in clean
        assert summarize_records([failed]) == \
            "no usable records (1 failed cell(s))"

    def test_default_records_are_not_failed(self):
        record = RunRecord(
            scenario="s", system="FCFS", condition="Loose",
            sequence_index=0, seed=1, n_apps=2, makespan_ms=1.0,
        )
        assert not record.failed


class TestTruncatedTailAccounting:
    def _store_with_truncated_tail(self, tmp_path):
        cells = _cells(1)
        store = ResultsStore(tmp_path / "records.jsonl")
        store.write(SerialBackend().run(cells))
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"scenario": "robustness", "trunc')
        return store

    def test_skipped_line_count_exposed(self, tmp_path):
        store = self._store_with_truncated_tail(tmp_path)
        with pytest.warns(UserWarning, match="truncated trailing record"):
            records = store.load()
        assert len(records) == 1
        assert store.skipped_lines == 1
        # An intact file resets the count.
        store.write(records)
        store.load()
        assert store.skipped_lines == 0

    def test_truncation_warns_once_per_file(self, tmp_path):
        import warnings as warnings_module

        store = self._store_with_truncated_tail(tmp_path)
        with pytest.warns(UserWarning, match="truncated trailing record"):
            store.load()
        # Re-loading the same damaged file skips silently but still counts.
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            ResultsStore(store.path).load()
        fresh = ResultsStore(store.path)
        fresh.load()
        assert fresh.skipped_lines == 1

    def test_replay_cli_reports_skipped_lines(self, tmp_path, capsys):
        from repro.cli import main

        store = self._store_with_truncated_tail(tmp_path)
        # Dropped lines are an exit-code-visible condition (3), not just a
        # note: automation must not mistake a damaged replay for a clean one.
        with pytest.warns(UserWarning):
            assert main(["replay", str(store.path)]) == 3
        out = capsys.readouterr().out
        assert "1 truncated trailing line(s) skipped" in out

    def test_replay_cli_reports_skipped_lines_json(self, tmp_path, capsys):
        import json

        from repro.cli import main

        store = self._store_with_truncated_tail(tmp_path)
        with pytest.warns(UserWarning):
            assert main(["replay", str(store.path), "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"] == 1
        assert payload["skipped_lines"] == 1
        assert "rendered" in payload
