"""The scenario fuzzer, shrinking, repro files and the verify CLI."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.apps import reset_instance_ids
from repro.campaign import CampaignRunner, get_scenario
from repro.campaign.backend import SerialBackend
from repro.cli import main
from repro.verify import (
    DifferentialOracle,
    FuzzCase,
    ScenarioFuzzer,
    load_repro,
    replay_repro,
    save_repro,
    shrink_case,
)
from repro.verify.fuzz import cases_from_scenario, sniff_repro_file

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_instance_ids()


def make_case(**overrides):
    base = dict(
        case_id=0,
        system="Nimblock",
        condition="STRESS",
        n_apps=4,
        batch_lo=2,
        batch_hi=8,
        seed=7,
        sequence_index=1,
        overrides=(("inter_slot_transfer_ms", 5.0),),
    )
    base.update(overrides)
    return FuzzCase(**base)


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
class TestScenarioFuzzer:
    def test_sampling_is_deterministic(self):
        first = list(ScenarioFuzzer(3).cases(8))
        second = list(ScenarioFuzzer(3).cases(8))
        assert first == second

    def test_cases_are_independent_streams(self):
        """Case i does not depend on how many cases were drawn before it."""
        assert ScenarioFuzzer(3).case(5) == list(ScenarioFuzzer(3).cases(8))[5]

    def test_different_seeds_differ(self):
        assert list(ScenarioFuzzer(0).cases(6)) != list(ScenarioFuzzer(1).cases(6))

    def test_restrictions_are_honoured(self):
        fuzzer = ScenarioFuzzer(0, scenario="smoke", systems=("Nimblock",))
        for case in fuzzer.cases(10):
            assert case.scenario == "smoke"
            assert case.system == "Nimblock"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            ScenarioFuzzer(0, scenario="missing")

    def test_sampled_cases_are_runnable(self):
        for case in ScenarioFuzzer(11).cases(4):
            arrivals = case.arrivals()
            if case.is_fleet:
                # A fleet case checks one routed shard: its sub-stream is
                # a subset of the n_apps-wide global stream.
                assert len(arrivals) <= case.n_apps
                full = case.fleet_workload().arrivals(
                    case.seed, case.sequence_index
                )
                assert len(full) == case.n_apps
                assert all(arrival in full for arrival in arrivals)
            else:
                assert len(arrivals) == case.n_apps
            assert all(
                case.batch_lo <= arrival.batch_size <= case.batch_hi
                for arrival in arrivals
            )
            case.params()  # overrides must resolve


class TestCasesFromScenario:
    def test_enumeration_matches_cell_count(self):
        scenario = get_scenario("stress-scale")
        cases = cases_from_scenario(scenario)
        assert len(cases) == scenario.cell_count()
        assert [case.case_id for case in cases] == list(range(len(cases)))
        assert {case.system for case in cases} == set(scenario.system_names())
        assert all(case.scenario == "stress-scale" for case in cases)

    def test_case_reproduces_campaign_arrivals(self):
        """A scenario case regenerates exactly the campaign cell workload."""
        scenario = get_scenario("smoke")
        case = cases_from_scenario(scenario)[0]
        cell = CampaignRunner().cells_for(scenario)[0]
        assert case.arrivals() == cell.resolve_arrivals()


# ----------------------------------------------------------------------
# JSON round-trip
# ----------------------------------------------------------------------
class TestFuzzCaseSerialization:
    def test_round_trip(self):
        case = make_case(apps=("IC", "AN"))
        payload = json.loads(json.dumps(case.to_dict()))
        assert FuzzCase.from_dict(payload) == case

    def test_unknown_field_rejected(self):
        payload = make_case().to_dict()
        payload["surprise"] = 1
        with pytest.raises(ValueError, match="unknown fuzz-case fields"):
            FuzzCase.from_dict(payload)

    def test_missing_field_rejected(self):
        payload = make_case().to_dict()
        del payload["system"]
        with pytest.raises(ValueError, match="missing fields"):
            FuzzCase.from_dict(payload)


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
class TestShrinking:
    def test_shrinks_to_minimal_failing_case(self):
        case = make_case(n_apps=6, batch_hi=12)

        def still_fails(candidate):
            # Synthetic failure condition: needs >= 3 apps and the override.
            return candidate.n_apps >= 3 and bool(candidate.overrides)

        shrunk, attempts = shrink_case(case, still_fails, budget=64)
        assert shrunk.n_apps == 3
        assert shrunk.batch_hi == shrunk.batch_lo
        assert shrunk.sequence_index == 0
        assert shrunk.overrides  # cannot be dropped: failure needs it
        assert attempts <= 64

    def test_budget_is_respected(self):
        case = make_case(n_apps=64)
        runs = []

        def still_fails(candidate):
            runs.append(candidate)
            return True  # everything fails: shrinking only stops on budget

        _, attempts = shrink_case(case, still_fails, budget=5)
        assert attempts == 5
        assert len(runs) == 5

    def test_already_minimal_case_is_stable(self):
        case = make_case(n_apps=1, batch_hi=2, batch_lo=2,
                         sequence_index=0, overrides=(), condition="LOOSE")
        shrunk, _ = shrink_case(case, lambda c: True, budget=16)
        assert shrunk == case


# ----------------------------------------------------------------------
# Repro files and replay
# ----------------------------------------------------------------------
class TestReproFiles:
    def test_save_load_round_trip(self, tmp_path):
        case = make_case()
        oracle = DifferentialOracle()
        report = oracle.check(case.system, case.arrivals(), case.params())
        path = save_repro(tmp_path / "repro.json", case, report)
        loaded, divergence = load_repro(path)
        assert loaded == case
        assert divergence["system"] == case.system

    def test_sniffing_rejects_records_files(self, tmp_path):
        records = tmp_path / "records.jsonl"
        records.write_text('{"schema": 1, "system": "FCFS"}\n')
        assert sniff_repro_file(records) is None

    def test_load_rejects_non_repro(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError, match="not a verify-repro"):
            load_repro(path)

    def test_replay_repro_runs_the_oracle(self, tmp_path):
        case = make_case(n_apps=2)
        path = save_repro(tmp_path / "repro.json", case, None)
        report = replay_repro(path)
        assert report.ok  # the real kernels agree on this case

    def test_committed_repros_stay_fixed(self):
        """Any repro committed under tests/data/repros must replay clean.

        The triage workflow (TESTING.md) commits shrunk repros of fixed
        kernel bugs here; this harness replays each as a regression test.
        """
        repro_dir = DATA / "repros"
        if not repro_dir.is_dir():
            pytest.skip("no committed repros")
        paths = sorted(repro_dir.glob("*.json"))
        if not paths:
            pytest.skip("no committed repros")
        for path in paths:
            report = replay_repro(path)
            assert report.ok, f"{path.name}: {report.summary()}"


class TestFailurePath:
    def test_cli_failure_handler_shrinks_and_persists(self, tmp_path, capsys):
        """The CLI failure path: narrate, shrink, persist a replayable repro."""
        from repro.verify.cli import _check_case, _handle_failure
        from tests.test_verify_oracle import SleepSkewEngine

        oracle = DifferentialOracle(reference_factory=SleepSkewEngine)
        case = ScenarioFuzzer(0).case(0)
        report = _check_case(oracle, case)
        assert not report.ok
        path = _handle_failure(oracle, case, report, str(tmp_path), 8)
        err = capsys.readouterr().err
        assert path.exists()
        assert "DIVERGENCE" in err
        assert "repro persisted" in err
        assert "python -m repro replay" in err
        # The persisted repro reproduces the failure under the buggy kernel
        # and passes once the kernel is fixed (i.e. with the real kernels).
        assert not replay_repro(path, oracle).ok
        assert replay_repro(path).ok


# ----------------------------------------------------------------------
# Campaign backend wiring: any scenario is oracle-checkable
# ----------------------------------------------------------------------
class TestKernelCells:
    def test_reference_cells_produce_identical_records(self):
        scenario = get_scenario("smoke")
        cells = CampaignRunner().cells_for(scenario)
        optimized = SerialBackend().run(cells)
        reference = SerialBackend().run(
            [dataclasses.replace(cell, kernel="reference") for cell in cells]
        )
        assert optimized == reference

    def test_unknown_kernel_is_rejected(self):
        scenario = get_scenario("smoke")
        cell = CampaignRunner().cells_for(scenario)[0]
        bad = dataclasses.replace(cell, kernel="quantum")
        with pytest.raises(KeyError, match="unknown kernel"):
            bad.engine_factory()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestVerifyCLI:
    def test_fuzz_run_passes(self, capsys, tmp_path):
        code = main([
            "verify", "--fuzz", "4", "--seed", "0",
            "--repro-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "all 4 cases bit-identical" in out

    def test_scenario_sweep_passes(self, capsys, tmp_path):
        code = main([
            "verify", "--scenario", "smoke", "--system", "Nimblock",
            "--repro-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweeping scenario 'smoke'" in out

    def test_unknown_scenario_is_operator_error(self, capsys):
        assert main(["verify", "--scenario", "missing"]) == 2
        assert main(["verify", "--fuzz", "2", "--scenario", "missing"]) == 2
        assert main(["verify", "--fuzz", "0"]) == 2

    def test_unknown_system_is_operator_error(self, capsys):
        """A typo'd --system must not turn the gate silently green."""
        assert main(["verify", "--scenario", "smoke", "--system", "Typo"]) == 2
        assert main(["verify", "--fuzz", "2", "--system", "Typo"]) == 2
        assert "unknown system" in capsys.readouterr().err

    def test_system_outside_scenario_is_operator_error(self, capsys):
        """A valid system the scenario never evaluates leaves zero cells:
        that is an error, not a vacuous pass."""
        code = main(["verify", "--scenario", "smoke", "--system", "VersaSlot-BL"])
        assert code == 2
        assert "no cells" in capsys.readouterr().err

    def test_campaign_replay_of_repro_file(self, capsys, tmp_path):
        """Satellite regression: a fuzzer repro is a one-command replay."""
        case = make_case(n_apps=2)
        path = save_repro(tmp_path / "repro-fuzz-0.json", case, None)
        code = main(["replay", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "kernels agree" in out

    def test_top_level_replay_also_accepts_repros(self, capsys, tmp_path):
        case = make_case(n_apps=2)
        path = save_repro(tmp_path / "repro.json", case, None)
        assert main(["replay", str(path)]) == 0
        assert "kernels agree" in capsys.readouterr().out

    def test_campaign_replay_still_replays_records(self, capsys, tmp_path):
        store_path = tmp_path / "smoke.jsonl"
        code = main([
            "campaign", "run", "smoke", "--out", str(store_path),
        ])
        assert code == 0
        capsys.readouterr()
        assert main(["replay", str(store_path)]) == 0
        assert "records" in capsys.readouterr().out

    def test_campaign_replay_missing_file(self, capsys):
        assert main(["replay", "does/not/exist.json"]) == 2
