"""Integration tests for the experiment harness (small configurations)."""

import pytest

from repro.experiments import (
    PAPER_FIG7,
    SYSTEMS,
    long_workload,
    run_cluster,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig7_dynamic,
    run_fig8,
)
from repro.campaign import simulate_run
from repro.workloads import Condition, WorkloadGenerator


class TestRunner:
    def test_all_systems_registered(self):
        assert list(SYSTEMS) == [
            "Baseline", "FCFS", "RR", "Nimblock", "VersaSlot-OL", "VersaSlot-BL",
        ]

    def test_run_sequence_drains(self):
        arrivals = WorkloadGenerator(1).sequence(Condition.LOOSE, n_apps=4)
        result = simulate_run("Nimblock", arrivals)
        assert len(result.stats.response_times_ms()) == 4
        assert result.stats.completions == 4

    def test_unknown_system_rejected(self):
        arrivals = WorkloadGenerator(1).sequence(Condition.LOOSE, n_apps=2)
        with pytest.raises(KeyError, match="available"):
            simulate_run("Mystery", arrivals)

    def test_run_sequence_deterministic(self):
        arrivals = WorkloadGenerator(1).sequence(Condition.STRESS, n_apps=6)
        a = simulate_run("VersaSlot-BL", arrivals)
        b = simulate_run("VersaSlot-BL", arrivals)
        assert a.stats.response_times_ms() == b.stats.response_times_ms()


class TestFig5:
    def test_small_run_shape(self):
        result = run_fig5(
            sequence_count=1,
            n_apps=6,
            conditions=(Condition.STRESS,),
        )
        reductions = result.reductions["Stress"]
        assert reductions["Baseline"] == pytest.approx(1.0)
        assert set(reductions) == set(SYSTEMS)
        assert result.table()

    def test_versaslot_bl_wins_under_stress(self):
        result = run_fig5(
            sequence_count=2,
            n_apps=12,
            conditions=(Condition.STRESS,),
        )
        reductions = result.reductions["Stress"]
        assert reductions["VersaSlot-BL"] > reductions["VersaSlot-OL"]
        assert reductions["VersaSlot-OL"] > reductions["Nimblock"]
        assert reductions["Nimblock"] > 1.0


class TestFig6:
    def test_reuses_fig5_runs(self):
        fig5 = run_fig5(
            sequence_count=1, n_apps=6, conditions=(Condition.STRESS,)
        )
        fig6 = run_fig6(fig5_result=fig5)
        assert "Stress-95" in fig6.relative_tails
        assert "Stress-99" in fig6.relative_tails
        assert fig6.relative_tails["Stress-95"]["Baseline"] == pytest.approx(1.0)
        assert fig6.table()


class TestFig7:
    def test_static_gains_match_paper(self):
        result = run_fig7()
        for app, (lut, ff) in PAPER_FIG7.items():
            got_lut, got_ff = result.gains[app]
            assert got_lut == pytest.approx(lut, abs=0.3)
            assert got_ff == pytest.approx(ff, abs=0.3)
        assert result.detail_bundle == pytest.approx(0.60)
        assert result.table()

    def test_dynamic_gain_positive(self):
        little, big = run_fig7_dynamic("IC", batch_size=10)
        assert big.lut > little.lut
        assert big.ff > little.ff


class TestFig8:
    def test_long_workload_phases(self):
        arrivals = long_workload(seed=1, n_apps=30, interval_range=(100.0, 1000.0))
        assert len(arrivals) == 30
        gaps = [b.time_ms - a.time_ms for a, b in zip(arrivals, arrivals[1:])]
        dense = sum(gaps[10:19]) / 9
        relaxed = sum(gaps[:9]) / 9
        assert dense < relaxed

    def test_cluster_run_drains(self):
        arrivals = long_workload(seed=1, n_apps=10, interval_range=(400.0, 900.0))
        responses, cluster, monitor = run_cluster(arrivals)
        assert responses.count == 10

    def test_fig8_small(self):
        result = run_fig8(seed=1, n_apps=24)
        assert result.reductions["Only.Little"] == pytest.approx(1.0)
        assert result.reductions["Switching"] > 0
        assert result.trace()
        assert result.comparison()
