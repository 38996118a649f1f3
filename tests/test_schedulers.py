"""Behavioural tests for the baseline schedulers on small workloads."""

import pytest

from repro.apps import ApplicationInstance, BENCHMARKS, reset_instance_ids
from repro.config import DEFAULT_PARAMETERS
from repro.fpga import BoardConfig, FPGABoard, SlotKind
from repro.schedulers import (
    BaselineScheduler,
    FCFSScheduler,
    NimblockScheduler,
    RoundRobinScheduler,
    optimal_big_slots,
    optimal_little_slots,
)
from repro.sim import Engine


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_instance_ids()


def make_board(config=BoardConfig.ONLY_LITTLE):
    engine = Engine()
    return engine, FPGABoard(engine, config, DEFAULT_PARAMETERS, name="test")


def submit_and_run(scheduler, engine, specs, spacing_ms=0.0, until=50_000_000):
    def driver():
        for index, (name, batch) in enumerate(specs):
            if index and spacing_ms:
                yield engine.timeout(spacing_ms)
            scheduler.submit(ApplicationInstance(BENCHMARKS[name], batch, engine.now))

    engine.process(driver())
    engine.run(until=until)
    return scheduler.stats


class TestBaselineScheduler:
    def test_single_app_service_time(self):
        engine, board = make_board()
        scheduler = BaselineScheduler(board)
        stats = submit_and_run(scheduler, engine, [("3DR", 10)])
        assert stats.completions == 1
        record = stats.responses[0]
        # full PR + restart + ideal pipeline over all stages
        from repro.apps import pipelined_exec_time

        expected = (
            DEFAULT_PARAMETERS.full_pr_ms
            + DEFAULT_PARAMETERS.full_restart_overhead_ms
            + pipelined_exec_time(BENCHMARKS["3DR"].tasks, 10)
        )
        assert record.response_ms == pytest.approx(expected, rel=1e-6)

    def test_fifo_queueing(self):
        engine, board = make_board()
        scheduler = BaselineScheduler(board)
        stats = submit_and_run(scheduler, engine, [("3DR", 10), ("IC", 10)])
        assert stats.completions == 2
        first, second = stats.responses
        assert second.finish_time > first.finish_time
        # second app queued behind the first
        assert second.response_ms > first.response_ms

    def test_drained_flag(self):
        engine, board = make_board()
        scheduler = BaselineScheduler(board)
        submit_and_run(scheduler, engine, [("3DR", 5)])
        assert scheduler.is_drained


class TestFCFSScheduler:
    def test_completes_all_apps(self):
        engine, board = make_board()
        scheduler = FCFSScheduler(board)
        stats = submit_and_run(scheduler, engine, [("IC", 8), ("3DR", 6), ("LeNet", 5)])
        assert stats.completions == 3
        assert all(r.response_ms > 0 for r in stats.responses)

    def test_reservation_is_one_slot_per_task(self):
        engine, board = make_board()
        scheduler = FCFSScheduler(board)
        scheduler.submit(ApplicationInstance(BENCHMARKS["IC"], 10, 0.0))
        engine.run(until=500.0)
        app = scheduler.apps[0]
        assert app.alloc_little == BENCHMARKS["IC"].task_count

    def test_strict_fifo_head_blocking(self):
        engine, board = make_board()
        scheduler = FCFSScheduler(board)
        # OF takes 8 of 8 slots; the next two apps must wait.
        scheduler.submit(ApplicationInstance(BENCHMARKS["OF"], 20, 0.0))
        scheduler.submit(ApplicationInstance(BENCHMARKS["3DR"], 20, 0.0))
        engine.run(until=300.0)
        of_run, tdr_run = scheduler.apps
        assert of_run.alloc_little == 8
        assert tdr_run.alloc_little == 0

    def test_pr_count_one_per_task(self):
        engine, board = make_board()
        scheduler = FCFSScheduler(board)
        stats = submit_and_run(scheduler, engine, [("IC", 5)])
        assert stats.pr_count == BENCHMARKS["IC"].task_count


class TestRoundRobinScheduler:
    def test_completes_all_apps(self):
        engine, board = make_board()
        scheduler = RoundRobinScheduler(board)
        stats = submit_and_run(scheduler, engine, [("IC", 8), ("AN", 6), ("OF", 5)])
        assert stats.completions == 3

    def test_breadth_first_allocation(self):
        engine, board = make_board()
        scheduler = RoundRobinScheduler(board)
        scheduler.submit(ApplicationInstance(BENCHMARKS["OF"], 20, 0.0))
        scheduler.submit(ApplicationInstance(BENCHMARKS["IC"], 20, 0.0))
        engine.run(until=150.0)
        of_run, ic_run = scheduler.apps
        # both apps hold slots: no head-of-line monopolization
        assert of_run.alloc_little >= 1
        assert ic_run.alloc_little >= 1
        assert of_run.alloc_little + ic_run.alloc_little <= 8

    def test_rotation_evicts_under_pressure(self):
        engine, board = make_board()
        scheduler = RoundRobinScheduler(board)
        # More apps than slots: some wait with zero allocation, which is
        # what triggers the quantum rotation.
        specs = [("OF", 30), ("AN", 30), ("IC", 30), ("LeNet", 30), ("3DR", 30),
                 ("OF", 30), ("AN", 30), ("IC", 30), ("LeNet", 30), ("3DR", 30)]
        stats = submit_and_run(scheduler, engine, specs)
        assert stats.completions == 10
        assert stats.preemptions >= 1


class TestNimblockScheduler:
    def test_completes_all_apps(self):
        engine, board = make_board()
        scheduler = NimblockScheduler(board)
        stats = submit_and_run(scheduler, engine, [("IC", 8), ("AN", 6), ("OF", 5)])
        assert stats.completions == 3

    def test_optimal_allocation_bounded_by_ilp(self):
        engine, board = make_board()
        scheduler = NimblockScheduler(board)
        scheduler.submit(ApplicationInstance(BENCHMARKS["3DR"], 20, 0.0))
        scheduler.submit(ApplicationInstance(BENCHMARKS["IC"], 20, 0.0))
        engine.run(until=100.0)
        tdr, ic = scheduler.apps
        assert tdr.alloc_little >= optimal_little_slots(
            BENCHMARKS["3DR"], 20, DEFAULT_PARAMETERS.little_pr_ms, 8
        )

    def test_single_core_blocks_launches(self):
        engine, board = make_board()
        scheduler = NimblockScheduler(board)
        specs = [("IC", 20), ("AN", 20), ("OF", 20)]
        stats = submit_and_run(scheduler, engine, specs)
        assert stats.launch_blocked > 0

    def test_allocation_invariant_never_exceeds_fabric(self):
        engine, board = make_board()
        scheduler = NimblockScheduler(board)
        violations = []

        def checker():
            while True:
                yield engine.timeout(50.0)
                used = sum(a.used_little for a in scheduler.active_apps())
                if used > scheduler.little_total:
                    violations.append((engine.now, used))
                if scheduler.stats.completions >= 4:
                    return

        engine.process(checker())
        submit_and_run(scheduler, engine, [("IC", 10), ("OF", 10), ("AN", 10), ("3DR", 10)])
        assert violations == []


class TestILP:
    def test_optimal_little_within_bounds(self):
        for name, spec in BENCHMARKS.items():
            o = optimal_little_slots(spec, 20, DEFAULT_PARAMETERS.little_pr_ms, 8)
            assert 1 <= o <= min(spec.task_count, 8)

    def test_optimal_big_zero_without_bundles(self):
        from repro.apps import ApplicationSpec, TaskSpec
        from repro.fpga import ResourceVector

        plain = ApplicationSpec(
            "p", tuple(TaskSpec(f"t{i}", i, 5.0, ResourceVector(0.5, 0.5)) for i in range(2))
        )
        assert optimal_big_slots(plain, 10, 200.0, 2) == 0

    def test_optimal_big_bounded_by_bundles(self):
        o = optimal_big_slots(BENCHMARKS["OF"], 20, DEFAULT_PARAMETERS.big_pr_ms, 2)
        assert 1 <= o <= 2

    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            optimal_little_slots(BENCHMARKS["IC"], 0, 100.0, 8)


class TestRuntimeInvariants:
    def test_pipeline_order_respected(self):
        """Item b of stage k never completes before item b of stage k-1."""
        engine, board = make_board()
        scheduler = NimblockScheduler(board)
        scheduler.submit(ApplicationInstance(BENCHMARKS["IC"], 12, 0.0))
        engine.run(until=50_000_000)
        app = scheduler.apps[0]
        assert app.finished
        assert all(count == 12 for count in app.done_counts)

    def test_preempted_work_not_lost(self):
        engine, board = make_board()
        scheduler = NimblockScheduler(board)
        specs = [("OF", 30), ("AN", 30), ("IC", 30), ("LeNet", 30), ("3DR", 30), ("OF", 30)]
        stats = submit_and_run(scheduler, engine, specs)
        assert stats.completions == 6
        # Preemption causes re-PRs: more loads than tasks.
        total_tasks = sum(BENCHMARKS[name].task_count for name, _ in specs)
        if stats.preemptions:
            assert stats.pr_count > total_tasks

    def test_slots_all_released_after_drain(self):
        engine, board = make_board()
        scheduler = FCFSScheduler(board)
        submit_and_run(scheduler, engine, [("IC", 8), ("OF", 6)])
        assert all(slot.is_idle for slot in board.slots)

    def test_submit_closed_intake_rejected(self):
        engine, board = make_board()
        scheduler = FCFSScheduler(board)
        scheduler.close_intake()
        with pytest.raises(RuntimeError, match="intake"):
            scheduler.submit(ApplicationInstance(BENCHMARKS["IC"], 5, 0.0))

    def test_extract_waiting_apps(self):
        engine, board = make_board()
        scheduler = FCFSScheduler(board)
        scheduler.submit(ApplicationInstance(BENCHMARKS["OF"], 20, 0.0))
        scheduler.submit(ApplicationInstance(BENCHMARKS["IC"], 20, 0.0))
        scheduler.submit(ApplicationInstance(BENCHMARKS["AN"], 20, 0.0))
        engine.run(until=300.0)  # OF holds all slots; IC/AN not started
        moved = scheduler.extract_waiting_apps()
        names = {inst.spec.name for inst in moved}
        assert "OF" not in names
        assert names <= {"IC", "AN"}
        assert scheduler.stats.migrations_out == len(moved)
        engine.run(until=50_000_000)
        assert scheduler.stats.completions == 3 - len(moved)
