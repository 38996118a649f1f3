"""Unit and integration tests for the campaign subsystem."""

import json

import pytest

from repro.campaign import (
    CampaignCell,
    CampaignRunner,
    DrainError,
    ProcessBackend,
    ResultsStore,
    RunRecord,
    SCENARIOS,
    SYSTEM_REGISTRY,
    Scenario,
    SerialBackend,
    execute_cell,
    fingerprint_parameters,
    get_scenario,
    get_system,
    group_by_system,
    load_records,
    register_scenario,
    register_system,
    simulate_run,
)
from repro.config import DEFAULT_PARAMETERS
from repro.experiments import Fig5Result, run_fig5
from repro.fpga import BoardConfig
from repro.workloads import Condition, WorkloadGenerator, WorkloadSpec


class TestSystemRegistry:
    def test_legend_order(self):
        assert list(SYSTEM_REGISTRY) == [
            "Baseline", "FCFS", "RR", "Nimblock", "VersaSlot-OL", "VersaSlot-BL",
        ]

    def test_get_system_unknown_names_alternatives(self):
        with pytest.raises(KeyError, match="available"):
            get_system("Mystery")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_system("FCFS", BoardConfig.ONLY_LITTLE)(object)

    def test_experiments_systems_is_live_view(self):
        from repro.experiments.runner import SYSTEMS

        assert list(SYSTEMS) == list(SYSTEM_REGISTRY)
        factory, config = SYSTEMS["VersaSlot-BL"]
        assert config is BoardConfig.BIG_LITTLE
        assert "VersaSlot-BL" in SYSTEMS
        assert dict(SYSTEMS)


class TestScenario:
    def _scenario(self, **kw):
        defaults = dict(
            name="t",
            workload=WorkloadSpec(Condition.STRESS, n_apps=4, sequence_count=2),
            systems=("Baseline", "FCFS"),
            seeds=(1, 2),
        )
        defaults.update(kw)
        return Scenario(**defaults)

    def test_cell_enumeration(self):
        scenario = self._scenario()
        cells = CampaignRunner().cells_for(scenario)
        assert len(cells) == scenario.cell_count() == 2 * 2 * 2
        # sequence-major within a seed, systems inner
        assert [(c.seed, c.sequence_index, c.system) for c in cells[:4]] == [
            (1, 0, "Baseline"), (1, 0, "FCFS"), (1, 1, "Baseline"), (1, 1, "FCFS"),
        ]

    def test_overrides_normalized_and_applied(self):
        scenario = self._scenario(overrides={"pr_failure_rate": 0.1})
        assert scenario.overrides == (("pr_failure_rate", 0.1),)
        assert scenario.parameters().pr_failure_rate == 0.1
        assert DEFAULT_PARAMETERS.pr_failure_rate == 0.0

    def test_empty_systems_means_all(self):
        scenario = self._scenario(systems=())
        assert scenario.system_names() == tuple(SYSTEM_REGISTRY)

    def test_scaled(self):
        scaled = self._scenario().scaled(sequence_count=5, n_apps=9, seeds=(7,))
        assert scaled.workload.sequence_count == 5
        assert scaled.workload.n_apps == 9
        assert scaled.seeds == (7,)

    def test_registry_duplicate_rejected(self):
        assert "smoke" in SCENARIOS
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(get_scenario("smoke"))

    def test_workload_spec_seed_threading(self):
        """Deterministic per (seed, index), no cross-seed collisions.

        The legacy ``WorkloadGenerator.sequences`` offset scheme made
        (seed=1, index=1) identical to (seed=2, index=0); the spec threads
        seed and index independently so multi-seed scenarios never
        silently duplicate workloads.
        """
        spec = WorkloadSpec(Condition.STANDARD, n_apps=7, sequence_count=3)
        assert spec.sequences(5) == spec.sequences(5)
        keys = [(seed, index) for seed in (1, 2, 3) for index in range(3)]
        generated = [tuple(spec.sequence(seed, index)) for seed, index in keys]
        assert len(set(generated)) == len(keys)

    def test_workload_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(Condition.STRESS, n_apps=0)
        spec = WorkloadSpec(Condition.STRESS, sequence_count=2)
        with pytest.raises(IndexError):
            spec.sequence(1, 2)


class TestSimulationCore:
    def test_drain_error_is_diagnosable(self):
        arrivals = WorkloadGenerator(1).sequence(Condition.STRESS, n_apps=4)
        with pytest.raises(DrainError) as excinfo:
            simulate_run("Nimblock", arrivals, horizon_ms=100.0)
        err = excinfo.value
        message = str(err)
        # names the stuck apps, the completion count and the engine clock
        assert "did not drain" in message
        assert "t=100 ms" in message
        assert err.undrained
        assert all("#" in name for name in err.undrained)
        assert any(name.split("#")[0] in message for name in err.undrained)

    def test_drain_error_survives_pickling(self):
        """Worker DrainErrors cross the multiprocessing boundary intact."""
        import pickle

        err = DrainError("FCFS", 1, 4, ["IC#2", "OF#3"], 123.0)
        clone = pickle.loads(pickle.dumps(err))
        assert clone.undrained == ["IC#2", "OF#3"]
        assert clone.clock_ms == 123.0
        assert str(clone) == str(err)

    def test_cell_requires_workload_or_arrivals(self):
        cell = CampaignCell(scenario="s", system="FCFS", sequence_index=0, seed=1)
        with pytest.raises(ValueError, match="neither"):
            cell.resolve_arrivals()

    def test_execute_cell_record_shape(self):
        cell = CampaignCell(
            scenario="s",
            system="Nimblock",
            sequence_index=0,
            seed=1,
            workload=WorkloadSpec(Condition.LOOSE, n_apps=3),
        )
        record = execute_cell(cell)
        assert record.system == "Nimblock"
        assert record.condition == "Loose"
        assert record.n_apps == 3
        # Raw samples are opt-in; the default record carries the compact
        # bounded-memory response digest instead.
        assert record.response_times_ms == []
        assert record.digest().count == 3
        assert record.counters["completions"] == 3
        assert record.fingerprint == fingerprint_parameters(DEFAULT_PARAMETERS)
        assert 0 < record.makespan_ms < 1e8

    def test_execute_cell_raw_samples_opt_in(self):
        import dataclasses

        cell = CampaignCell(
            scenario="s",
            system="Nimblock",
            sequence_index=0,
            seed=1,
            workload=WorkloadSpec(Condition.LOOSE, n_apps=3),
        )
        raw = execute_cell(dataclasses.replace(cell, keep_raw_samples=True))
        digest_only = execute_cell(cell)
        assert len(raw.response_times_ms) == 3
        # The digest is built from the same completion stream either way,
        # and its mean is bit-identical to the raw-sample mean.
        assert raw.response_digest == digest_only.response_digest
        assert raw.mean_response_ms() == digest_only.mean_response_ms()


class TestResultsStore:
    def _records(self):
        scenario = Scenario(
            name="store-test",
            workload=WorkloadSpec(Condition.STRESS, n_apps=3, sequence_count=1),
            systems=("Baseline", "Nimblock"),
        )
        return CampaignRunner().run(scenario)

    def test_jsonl_round_trip(self, tmp_path):
        records = self._records()
        store = ResultsStore(tmp_path / "runs.jsonl")
        store.write(records)
        loaded = store.load()
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]

    def test_extend_appends(self, tmp_path):
        records = self._records()
        store = ResultsStore(tmp_path / "runs.jsonl")
        store.extend(records[:1])
        store.extend(records[1:])
        assert len(store.load()) == len(records)

    def test_runner_persists(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        records = CampaignRunner(store=path).run(
            Scenario(
                name="persist-test",
                workload=WorkloadSpec(Condition.STRESS, n_apps=3),
                systems=("FCFS",),
            )
        )
        assert [r.to_dict() for r in load_records(path)[0]] == [
            r.to_dict() for r in records
        ]

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        payload = self._records()[0].to_dict()
        payload["schema"] = 999
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ValueError, match="schema"):
            load_records(path)

    def test_malformed_interior_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps(self._records()[0].to_dict(), sort_keys=True)
        path.write_text("{not json\n" + good + "\n")
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_records(path)

    def test_truncated_trailing_line_skipped_with_warning(self, tmp_path):
        """A killed writer can only truncate the final line; loading must
        keep every intact record and warn about the partial one."""
        records = self._records()
        path = tmp_path / "truncated.jsonl"
        store = ResultsStore(path)
        store.extend(records)
        lines = path.read_text().splitlines()
        path.write_text(  # cut the last record short mid-line
            "\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2]
        )
        with pytest.warns(UserWarning, match="truncated trailing record"):
            loaded = store.load()
        assert [r.to_dict() for r in loaded] == [
            r.to_dict() for r in records[: len(loaded)]
        ]
        assert len(loaded) == len(records) - 1

    def test_extend_after_truncation_repairs_the_tail(self, tmp_path):
        """Appending to a crash-truncated file must not merge the partial
        line with the first new record — the resume-after-crash path."""
        records = self._records()
        path = tmp_path / "resume.jsonl"
        store = ResultsStore(path)
        store.extend(records)
        text = path.read_text()
        path.write_text(text[: len(text) - 25])  # kill the final newline+tail
        with pytest.warns(UserWarning, match="dropping truncated trailing"):
            store.extend(records)
        loaded = store.load()  # no warning: the file is whole again
        assert [r.to_dict() for r in loaded] == [
            r.to_dict() for r in records[:-1] + records
        ]

    def test_extend_terminates_valid_unterminated_tail(self, tmp_path):
        """A valid final record merely missing its newline is kept."""
        records = self._records()
        path = tmp_path / "unterminated.jsonl"
        store = ResultsStore(path)
        store.extend(records)
        path.write_text(path.read_text().rstrip("\n"))
        store.extend(records[:1])
        loaded = store.load()
        assert [r.to_dict() for r in loaded] == [
            r.to_dict() for r in records + records[:1]
        ]

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        records = self._records()
        path = tmp_path / "atomic.jsonl"
        store = ResultsStore(path)
        store.write(records)
        store.write(records[:1])  # overwrite goes through the temp file
        assert len(store.load()) == 1
        assert list(tmp_path.glob("*.tmp")) == []

    def test_missing_fields_rejected_with_location(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text('{"schema": 1}\n')
        with pytest.raises(ValueError, match="short.jsonl:1.*missing fields"):
            load_records(path)

    def test_to_dict_equals_asdict_and_shares_no_container(self):
        import dataclasses

        from repro.campaign import failure_record

        (cell,) = CampaignRunner().cells_for(Scenario(
            name="to-dict",
            workload=WorkloadSpec(Condition.STRESS, n_apps=3),
            systems=("Nimblock",),
        ))
        raw = execute_cell(dataclasses.replace(cell, keep_raw_samples=True))
        digest_only = execute_cell(cell)
        failed = failure_record(cell, "worker process crashed")
        assert raw.response_times_ms and raw.response_digest
        assert digest_only.response_digest and not digest_only.response_times_ms
        for record in (raw, digest_only, failed):
            payload = record.to_dict()
            expected = dataclasses.asdict(record)
            assert payload == expected
            assert list(payload) == list(expected)
            for name in ("response_times_ms", "counters", "utilization",
                         "response_digest"):
                assert payload[name] is not getattr(record, name)
            if record.response_digest:
                assert payload["response_digest"]["buckets"] is not \
                    record.response_digest["buckets"]

    def test_fingerprint_tracks_overrides(self):
        base = fingerprint_parameters(DEFAULT_PARAMETERS)
        tweaked = fingerprint_parameters(
            DEFAULT_PARAMETERS.with_overrides(pcap_bandwidth_mbps=290.0)
        )
        assert base != tweaked
        assert base == fingerprint_parameters(DEFAULT_PARAMETERS)


class TestFigureReplay:
    def test_fig5_replay_from_persisted_records(self, tmp_path):
        path = tmp_path / "fig5.jsonl"
        live = run_fig5(
            seed=1,
            sequence_count=1,
            n_apps=5,
            conditions=(Condition.STRESS,),
            store=path,
        )
        replayed = Fig5Result.from_records(load_records(path)[0])
        assert replayed.reductions == live.reductions
        assert replayed.table() == live.table()

    def test_fig5_reductions_need_baseline(self):
        records = CampaignRunner().run(
            Scenario(
                name="no-baseline",
                workload=WorkloadSpec(Condition.STRESS, n_apps=3),
                systems=("FCFS",),
            )
        )
        with pytest.raises(KeyError, match="Baseline"):
            Fig5Result.from_records(records)

    def test_incompatible_records_refused(self, tmp_path):
        """Appends from differently-parameterized campaigns must not be
        silently averaged together on replay."""
        path = tmp_path / "mixed.jsonl"

        def run(n_apps):
            return CampaignRunner(store=path).run(
                Scenario(
                    name="mixed",
                    workload=WorkloadSpec(Condition.STRESS, n_apps=n_apps),
                    systems=("Baseline", "FCFS"),
                )
            )

        run(3)
        run(4)
        with pytest.raises(ValueError, match="duplicate"):
            Fig5Result.from_records(load_records(path)[0])


class TestBackends:
    def test_process_backend_single_cell_falls_back(self):
        cells = CampaignRunner().cells_for(
            Scenario(
                name="one-cell",
                workload=WorkloadSpec(Condition.LOOSE, n_apps=2),
                systems=("FCFS",),
            )
        )
        serial = SerialBackend().run(cells)
        parallel = ProcessBackend(jobs=4).run(cells)
        assert serial[0].to_dict() == parallel[0].to_dict()

    def test_jobs_validation(self):
        with pytest.raises(ValueError):
            ProcessBackend(jobs=0)


class TestCampaignCLI:
    def test_campaign_list(self, capsys):
        from repro.cli import main

        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "smoke" in out and "fig5-standard" in out

    def test_campaign_run_and_replay(self, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "smoke.jsonl"
        assert main([
            "campaign", "run", "smoke", "--jobs", "2", "--out", str(out_path),
        ]) == 0
        assert "records appended" in capsys.readouterr().out
        assert main(["replay", str(out_path)]) == 0
        assert "Campaign records" in capsys.readouterr().out

    @pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["text", "json"])
    def test_fig6_replay_without_a_tail_condition_is_an_operator_error(
        self, tmp_path, capsys, as_json
    ):
        """Fig. 6 plots Standard, Stress and Real-Time only: Loose-only
        records cannot form it, so replay exits 2 naming what is missing
        and what the records hold instead of printing an empty figure."""
        from repro.cli import main

        out_path = tmp_path / "loose.jsonl"
        assert main([
            "campaign", "run", "fig5-loose", "--apps", "4",
            "--sequences", "1", "--out", str(out_path),
        ]) == 0
        capsys.readouterr()
        assert main(["replay", str(out_path), "--figure", "fig6", *as_json]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "Standard, Stress, Real-Time" in captured.err
        assert captured.err.rstrip().endswith("have: Loose")

    @pytest.mark.parametrize("argv", [
        ["fig5", "--apps", "0"],
        ["fig5", "--sequences", "0"],
        ["fig6", "--sequences", "0"],
        ["fig8", "--apps", "0"],
        ["fig5", "--jobs", "0"],
        ["fig6", "--jobs", "-3"],
        ["fig8", "--jobs", "0"],
        ["campaign", "run", "smoke", "--jobs", "0"],
        ["fleet", "run", "fleet-smoke", "--jobs", "-3"],
        ["campaign", "run", "smoke", "--jobs", "2", "--cell-timeout", "0"],
        ["campaign", "run", "smoke", "--jobs", "2", "--cell-timeout", "-1"],
        ["fleet", "run", "fleet-smoke", "--jobs", "2", "--cell-timeout", "0"],
    ])
    def test_sizes_below_one_are_operator_errors(self, argv, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "out.jsonl"
        assert main([*argv, "--out", str(out_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --") and err.count("\n") == 1
        assert not out_path.exists()

    @pytest.mark.parametrize("figure", ["fig5", "fig6", "fig8"])
    def test_figures_take_no_cell_timeout(self, figure, tmp_path, capsys):
        from repro.cli import main

        out_path = tmp_path / "out.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            main([figure, "--jobs", "2", "--cell-timeout", "-1",
                  "--out", str(out_path)])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --cell-timeout" in \
            capsys.readouterr().err
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [
        ["replay", "DIR"],
        ["store", "ingest", "new.sqlite", "DIR"],
        ["store", "export", "DIR", "x.sqlite"],
        ["campaign", "run", "smoke", "--out", "DIR"],
        ["fig5", "--sequences", "1", "--apps", "2", "--out", "DIR"],
        ["campaign", "run", "smoke", "--events-dir", "FILE"],
        ["campaign", "run", "smoke", "--events-dir", "FILE", "--jobs", "2"],
    ], ids="_".join)
    def test_path_of_the_wrong_kind_is_an_operator_error(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        """A directory where a file belongs, or a file where a directory
        belongs: exit 2 with one line naming the path, and no change on
        disk."""
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        (tmp_path / "DIR").mkdir()
        (tmp_path / "FILE").write_text("not a directory\n")

        def tree():
            return {
                str(path.relative_to(tmp_path)):
                    path.read_bytes() if path.is_file() else None
                for path in tmp_path.rglob("*")
            }

        before = tree()
        assert main(argv) == 2
        err = capsys.readouterr().err
        name = "DIR" if "DIR" in argv else "FILE"
        assert err.startswith("error: ") and err.count("\n") == 1
        assert err.rstrip().endswith(f": {name}")
        assert tree() == before

    @pytest.mark.parametrize("argv", [
        ["campaign", "replay", "results.jsonl"],
        ["telemetry", "summarize", "events.jsonl"],
    ], ids="_".join)
    def test_removed_replay_aliases_are_invalid_choices(self, argv, capsys):
        """``replay`` is the one replay command."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_fig8_with_one_app_has_no_dswitch_samples(self, capsys):
        from repro.cli import main

        assert main(["fig8", "--apps", "1"]) == 0
        out = capsys.readouterr().out
        assert "D_switch trajectory: no samples" in out
        assert "Response reduction vs Only.Little" in out
        assert "mean switching overhead" in out

    def test_list_systems(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "VersaSlot-BL" in out
