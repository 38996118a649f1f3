"""End-to-end integration tests: cross-scheduler invariants on one workload."""

from statistics import fmean

import pytest

from repro.apps import BENCHMARKS
from repro.campaign import simulate_run
from repro.experiments.runner import SYSTEMS
from repro.workloads import Condition, WorkloadGenerator

WORKLOAD = WorkloadGenerator(11).sequence(Condition.STRESS, n_apps=10)


@pytest.fixture(scope="module")
def results():
    return {name: simulate_run(name, WORKLOAD) for name in SYSTEMS}


class TestEveryScheduler:
    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_all_apps_complete(self, results, system):
        assert results[system].stats.completions == len(WORKLOAD)

    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_responses_positive_and_bounded(self, results, system):
        samples = results[system].stats.response_times_ms()
        assert all(0 < s < 10_000_000 for s in samples)

    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_response_not_less_than_pure_execution(self, results, system):
        """No app finishes faster than its bottleneck-stage lower bound."""
        lower_bounds = {
            name: max(t.exec_time_ms for t in spec.tasks)
            for name, spec in BENCHMARKS.items()
        }
        for record in results[system].stats.responses:
            bound = lower_bounds[record.inst.spec.name] * record.inst.batch_size
            # Baseline pipelines everything; others can't beat the bottleneck.
            assert record.response_ms >= bound * 0.99


class TestSystemOrdering:
    def test_paper_ordering_under_stress(self, results):
        means = {
            name: fmean(results[name].stats.response_times_ms())
            for name in SYSTEMS
        }
        assert means["VersaSlot-BL"] < means["VersaSlot-OL"]
        assert means["VersaSlot-OL"] < means["Nimblock"]
        assert means["Nimblock"] < means["Baseline"]
        assert means["FCFS"] < means["Baseline"]

    def test_big_little_reduces_pr_count(self, results):
        assert (
            results["VersaSlot-BL"].stats.pr_count
            < results["VersaSlot-OL"].stats.pr_count
        )

    def test_dual_core_reduces_blocked_launches(self, results):
        assert (
            results["VersaSlot-OL"].stats.launch_blocked
            <= results["Nimblock"].stats.launch_blocked
        )

    def test_baseline_loads_once_per_app(self, results):
        assert results["Baseline"].stats.pr_count == len(WORKLOAD)


class TestConservation:
    @pytest.mark.parametrize("system", ["FCFS", "RR", "Nimblock", "VersaSlot-OL", "VersaSlot-BL"])
    def test_every_item_of_every_task_completed(self, system, results):
        # Completion implies done_counts == batch for every task, which the
        # runtime asserts internally; completions == arrivals re-checks it.
        stats = results[system].stats
        assert stats.completions == stats.arrivals

    @pytest.mark.parametrize("system", ["FCFS", "RR", "Nimblock", "VersaSlot-OL", "VersaSlot-BL"])
    def test_pr_count_at_least_one_per_payload_wave(self, system, results):
        stats = results[system].stats
        assert stats.pr_count >= len(WORKLOAD)  # at least one PR per app
