"""Determinism guarantees and utilization-tracker unit tests."""

import pytest

from repro.apps import ApplicationInstance, BENCHMARKS, reset_instance_ids
from repro.config import DEFAULT_PARAMETERS
from repro.campaign import simulate_run
from repro.experiments.runner import SYSTEMS
from repro.fpga import BoardConfig, FPGABoard, ResourceVector, SlotOccupancy
from repro.metrics import UtilizationTracker
from repro.sim import Engine
from repro.workloads import Condition, WorkloadGenerator


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_instance_ids()


class TestDeterminism:
    """Bit-identical replays are what make the figure benches meaningful."""

    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_identical_replay_per_system(self, system):
        arrivals = WorkloadGenerator(21).sequence(Condition.STRESS, n_apps=8)
        first = simulate_run(system, arrivals)
        second = simulate_run(system, arrivals)
        assert first.stats.response_times_ms() == second.stats.response_times_ms()
        assert first.stats.pr_count == second.stats.pr_count
        assert first.stats.preemptions == second.stats.preemptions

    def test_workload_generation_stable_across_conditions(self):
        for condition in Condition:
            a = WorkloadGenerator(5).sequence(condition, n_apps=12)
            b = WorkloadGenerator(5).sequence(condition, n_apps=12)
            assert a == b

    def test_fig8_replay(self):
        from repro.experiments.fig8 import long_workload

        assert long_workload(9, 20) == long_workload(9, 20)


class TestBackendEquivalence:
    """Serial and parallel campaign backends must be bit-identical."""

    def _scenario(self):
        from repro.campaign import Scenario
        from repro.workloads import WorkloadSpec

        return Scenario(
            name="equivalence",
            workload=WorkloadSpec(Condition.STRESS, n_apps=6, sequence_count=2),
            systems=("Nimblock", "VersaSlot-BL"),
            seeds=(21,),
        )

    def test_parallel_matches_serial_bitwise(self):
        from repro.campaign import CampaignRunner, ProcessBackend

        serial = CampaignRunner(jobs=1).run(self._scenario())
        parallel = CampaignRunner(backend=ProcessBackend(jobs=2)).run(
            self._scenario()
        )
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.system == b.system
            assert a.response_times_ms == b.response_times_ms
            assert a.counters == b.counters
            assert a.makespan_ms == b.makespan_ms
            assert a.to_dict() == b.to_dict()


class TestUtilizationTracker:
    def _tracked_board(self):
        engine = Engine()
        board = FPGABoard(engine, BoardConfig.ONLY_LITTLE, DEFAULT_PARAMETERS)
        tracker = UtilizationTracker(board)
        return engine, board, tracker

    def test_empty_board_zero(self):
        engine, board, tracker = self._tracked_board()
        engine.timeout(100.0)
        engine.run()
        assert tracker.mean_occupied_utilization() == ResourceVector.zero()
        assert tracker.mean_fabric_utilization() == ResourceVector.zero()

    def test_single_occupancy_fraction(self):
        engine, board, tracker = self._tracked_board()
        slot = board.slots[0]
        slot.begin_reconfiguration()
        slot.complete_reconfiguration(SlotOccupancy("t", 1, ResourceVector(0.5, 0.4)))
        engine.timeout(100.0)
        engine.run()
        occupied = tracker.mean_occupied_utilization()
        assert occupied.lut == pytest.approx(0.5)
        assert occupied.ff == pytest.approx(0.4)
        fabric = tracker.mean_fabric_utilization()
        assert fabric.lut == pytest.approx(0.5 / 8.0)

    def test_time_weighting(self):
        engine, board, tracker = self._tracked_board()
        slot = board.slots[0]

        def scenario():
            slot.begin_reconfiguration()
            slot.complete_reconfiguration(
                SlotOccupancy("t", 1, ResourceVector(0.8, 0.8))
            )
            yield engine.timeout(50.0)
            slot.release()
            yield engine.timeout(50.0)

        engine.process(scenario())
        engine.run()
        # Occupied half the time at 0.8 -> fabric mean = 0.8/8/2
        fabric = tracker.mean_fabric_utilization()
        assert fabric.lut == pytest.approx(0.8 / 8.0 / 2.0)
        # Occupied-slot mean only counts occupied intervals.
        occupied = tracker.mean_occupied_utilization()
        assert occupied.lut == pytest.approx(0.8)

    def test_simulated_run_utilization_in_unit_range(self):
        engine = Engine()
        board = FPGABoard(engine, BoardConfig.BIG_LITTLE, DEFAULT_PARAMETERS)
        tracker = UtilizationTracker(board)
        from repro.core import VersaSlotBigLittle

        scheduler = VersaSlotBigLittle(board, DEFAULT_PARAMETERS)
        scheduler.submit(ApplicationInstance(BENCHMARKS["AN"], 10, 0.0))
        engine.run(until=50_000_000)
        occupied = tracker.mean_occupied_utilization()
        assert 0.0 < occupied.lut <= 1.0
        assert 0.0 < occupied.ff <= 1.0


class TestMigrationDrain:
    def test_source_board_fully_drains_after_switch(self):
        from repro.cluster import FPGACluster
        from repro.core import make_versaslot
        from repro.workloads import Arrival, drive

        engine = Engine()
        cluster = FPGACluster(
            engine,
            scheduler_factory=lambda b, p, t: make_versaslot(b, p, t),
            params=DEFAULT_PARAMETERS,
        )
        arrivals = [Arrival("OF", 20, float(i * 50)) for i in range(6)]
        engine.process(drive(engine, cluster, arrivals))

        def switch_mid():
            yield engine.timeout(800.0)
            cluster.request_switch(BoardConfig.BIG_LITTLE)

        engine.process(switch_mid())
        engine.run(until=400_000_000)
        assert cluster.is_drained
        source = cluster.schedulers[0]
        assert source.is_drained
        assert all(slot.is_idle for slot in source.board.slots)
        # Every application finished exactly once across the cluster.
        assert len(cluster.responses) == len(arrivals)
        finished_ids = [record.inst.app_id for record in cluster.responses]
        assert len(finished_ids) == len(set(finished_ids))
