"""The reference kernel and the differential oracle.

Three layers of assurance:

* the reference kernel reproduces the PR-2 goldens captured from the seed
  kernel (so "reference" really means the documented semantics);
* the oracle finds the reference and optimized kernels bit-identical on
  real scenarios across every registered system;
* a deliberately injected kernel bug *is* caught, shrunk to a minimal
  case, persisted as a repro, and the repro replays the failure.
"""

import json
from pathlib import Path

import pytest

from repro.apps import reset_instance_ids
from repro.experiments.runner import SYSTEMS
from repro.sim import Engine, Interrupt
from repro.verify import (
    DifferentialOracle,
    ReferenceEngine,
    ScenarioFuzzer,
    instrumented_run,
    replay_repro,
    resolve_kernel,
    save_repro,
    shrink_case,
)
from repro.verify.invariants import (
    InvariantMonitor,
    check_app_run,
    check_scheduler,
)
from repro.workloads import Condition, WorkloadGenerator

from tests.test_kernel_fastlane import TestGoldenKernelStress

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_instance_ids()


# ----------------------------------------------------------------------
# The reference kernel is the seed semantics
# ----------------------------------------------------------------------
class TestReferenceKernelGolden(TestGoldenKernelStress):
    """The pure-kernel stress golden, replayed on the reference kernel.

    Inherits the golden-log and determinism tests with the engine swapped:
    the simple pop/dispatch loop must reproduce the seed kernel's event
    order exactly.
    """

    engine_factory = staticmethod(ReferenceEngine)


class TestReferenceFullStack:
    def test_reference_matches_pr2_golden_trace(self):
        """Full-stack anchor: reference kernel == optimized == PR-2 golden."""
        golden = json.loads((DATA / "golden_kernel.json").read_text())
        arrivals = WorkloadGenerator(7).sequence(Condition.STRESS, n_apps=10)
        for kernel in ("reference", "optimized"):
            fingerprint = instrumented_run("VersaSlot-BL", arrivals, kernel=kernel)
            assert fingerprint.trace_len == golden["trace_len"], kernel
            assert fingerprint.trace_sha256 == golden["trace_sha256"], kernel
            assert fingerprint.completions == golden["completions"], kernel
            assert fingerprint.violations == [], kernel

    def test_resolve_kernel_unknown(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            resolve_kernel("quantum")


# ----------------------------------------------------------------------
# Oracle equivalence on real scenarios
# ----------------------------------------------------------------------
class TestOracleEquivalence:
    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_kernels_agree_per_system(self, system):
        arrivals = WorkloadGenerator(13).sequence(Condition.STRESS, n_apps=6)
        report = DifferentialOracle().check(system, arrivals)
        assert report.ok, report.summary()
        assert report.optimized.trace_sha256 == report.reference.trace_sha256
        assert report.optimized.response_times_ms
        assert "kernels agree" in report.summary()

    def test_report_shapes(self):
        arrivals = WorkloadGenerator(3).sequence(Condition.LOOSE, n_apps=2)
        report = DifferentialOracle().check("FCFS", arrivals)
        assert not report.diverged
        assert report.violations == []
        payload = report.to_dict()
        assert payload["fields"] == []
        assert "first_trace_divergence" not in payload


# ----------------------------------------------------------------------
# Injected kernel bugs are caught
# ----------------------------------------------------------------------
class SleepSkewEngine(ReferenceEngine):
    """Injected bug: every model delay stretches by one part per million."""

    __slots__ = ()

    def sleep(self, delay, value=None):
        return super().sleep(delay * 1.000001, value)


class InterruptPriorityBugEngine(Engine):
    """Injected bug: interrupts lose their URGENT scheduling priority."""

    __slots__ = ()

    def enqueue(self, event, delay=0.0, priority=1):
        super().enqueue(event, delay, 1)  # always NORMAL


def _interrupt_race_log(engine):
    """An interrupt racing a same-time timeout: URGENT must win."""
    log = []

    def victim():
        try:
            yield engine.timeout(10.0)
            log.append((engine.now, "woke"))
        except Interrupt:
            log.append((engine.now, "interrupted"))

    victim_process = engine.process(victim())

    def interrupter():
        yield engine.timeout(5.0)
        victim_process.interrupt("stop")

    def tail():
        yield engine.timeout(5.0)
        log.append((engine.now, "tail"))

    engine.process(interrupter())
    engine.process(tail())
    engine.run()
    return log


class TestInjectedBugs:
    def test_interrupt_priority_bug_flips_event_order(self):
        """A kernel-level mutation visibly reorders same-time dispatch."""
        good = _interrupt_race_log(Engine())
        reference = _interrupt_race_log(ReferenceEngine())
        buggy = _interrupt_race_log(InterruptPriorityBugEngine())
        assert good == reference == [(5.0, "interrupted"), (5.0, "tail")]
        assert buggy == [(5.0, "tail"), (5.0, "interrupted")]

    def test_sleep_skew_caught_shrunk_and_replayable(self, tmp_path):
        """The full pipeline: detect -> shrink -> persist -> replay."""
        oracle = DifferentialOracle(reference_factory=SleepSkewEngine)
        found = None
        for case in ScenarioFuzzer(0).cases(5):
            report = oracle.check(case.system, case.arrivals(), case.params())
            if not report.ok:
                found = (case, report)
                break
        assert found is not None, "injected skew not caught within 5 cases"
        case, report = found
        assert report.diverged
        diverged = {divergence.name for divergence in report.fields}
        assert "trace_sha256" in diverged or "makespan_ms" in diverged
        assert "DIVERGENCE" in report.summary()

        def still_fails(candidate):
            return not oracle.check(
                candidate.system, candidate.arrivals(), candidate.params()
            ).ok

        shrunk, attempts = shrink_case(case, still_fails, budget=32)
        assert attempts <= 32
        assert shrunk.n_apps <= case.n_apps
        final = oracle.check(shrunk.system, shrunk.arrivals(), shrunk.params())
        assert not final.ok

        path = save_repro(tmp_path / "repro.json", shrunk, final)
        replayed = replay_repro(path, oracle)
        assert not replayed.ok, "repro must reproduce the failure"
        clean = replay_repro(path)  # the real kernels still agree
        assert clean.ok, clean.summary()

    def test_divergent_report_names_first_trace_record(self):
        oracle = DifferentialOracle(reference_factory=SleepSkewEngine)
        arrivals = WorkloadGenerator(5).sequence(Condition.STRESS, n_apps=4)
        report = oracle.check("Nimblock", arrivals)
        assert report.diverged
        assert report.first_trace_divergence is not None
        index, ref_line, opt_line = report.first_trace_divergence
        assert index >= 0
        assert ref_line != opt_line


# ----------------------------------------------------------------------
# Invariant checkers
# ----------------------------------------------------------------------
def _instrumented_scheduler(system="VersaSlot-OL", n_apps=3):
    from repro.campaign.backend import simulate_run

    refs = {}

    def capture(engine, board, scheduler):
        refs["engine"] = engine
        refs["board"] = board
        refs["scheduler"] = scheduler
        refs["monitor"] = InvariantMonitor(engine, board, scheduler)

    arrivals = WorkloadGenerator(9).sequence(Condition.STRESS, n_apps=n_apps)
    simulate_run(system, arrivals, instruments=(capture,))
    return refs


class TestInvariantCheckers:
    def test_clean_run_has_no_violations(self):
        refs = _instrumented_scheduler()
        assert refs["monitor"].finalize(drained=True) == []

    def test_corrupted_incremental_counter_is_flagged(self):
        refs = _instrumented_scheduler()
        app = refs["scheduler"].apps[0]
        app._unfinished_tasks = 5  # desync the incremental state
        problems = check_app_run(app)
        assert any("incremental unfinished tasks" in p for p in problems)

    def test_slot_conservation_violation_is_flagged(self):
        refs = _instrumented_scheduler()
        board = refs["board"]
        # A slot claims to be busy that no application accounts for.
        board.slots[0].begin_reconfiguration()
        problems = check_scheduler(refs["scheduler"])
        assert any("slot conservation" in p for p in problems)

    def test_out_of_sync_live_list_is_flagged(self):
        refs = _instrumented_scheduler()
        scheduler = refs["scheduler"]
        assert check_scheduler(scheduler) == []
        # A finished app left in the live list, still claiming a slot.
        stale = scheduler.apps[0]
        scheduler.live_apps.append(stale)
        stale.used_little += 1
        problems = check_scheduler(scheduler)
        assert any("live list out of sync" in p for p in problems)
        assert any("!= recount over apps (0, 0)" in p for p in problems)

    def test_clock_regression_is_flagged(self):
        refs = _instrumented_scheduler()
        monitor = refs["monitor"]
        engine = refs["engine"]
        engine.now = 0.0  # rewind the clock behind the last observation
        monitor._check_clock("synthetic event")
        assert any(
            v.invariant == "clock-monotonicity" for v in monitor.violations
        )

    def test_bundle_in_the_wrong_mode_is_flagged(self):
        # A VersaSlot-BL whose bundling decision is inverted: both kernels
        # run the same wrong schedule, so only the invariant can see it.
        from repro.campaign.scenario import SYSTEM_REGISTRY, register_system
        from repro.core.versaslot import VersaSlotBigLittle
        from repro.fpga.slots import BoardConfig
        from repro.workloads.generator import Arrival

        class InvertedBundling(VersaSlotBigLittle):
            __slots__ = ()

            def choose_serial_bundle(self, app_run, bundle):
                return not super().choose_serial_bundle(app_run, bundle)

        arrivals = [
            Arrival("IC", 3, 0.0), Arrival("OF", 1, 5.0),
            Arrival("LeNet", 12, 10.0), Arrival("AN", 2, 20.0),
            Arrival("3DR", 8, 30.0),
        ]
        register_system("VersaSlot-BL-inverted", BoardConfig.BIG_LITTLE)(
            InvertedBundling
        )
        try:
            report = DifferentialOracle(kernels=("heap",)).check(
                "VersaSlot-BL-inverted", arrivals
            )
        finally:
            del SYSTEM_REGISTRY["VersaSlot-BL-inverted"]
        assert not report.diverged, report.summary()
        assert (
            "OF#1: bundle OF/bundle1 runs parallel, the criterion picks serial"
            in " ".join(report.reference.violations)
        )
        assert report.reference.violations == report.optimized.violations

    def test_preempted_bundle_and_mixed_slot_kinds_are_flagged(self):
        from repro.apps import ApplicationInstance, BENCHMARKS
        from repro.config import DEFAULT_PARAMETERS
        from repro.core.versaslot import VersaSlotBigLittle
        from repro.fpga import BoardConfig, FPGABoard
        from repro.schedulers.runtime import BundleRun

        engine = Engine()
        board = FPGABoard(engine, BoardConfig.BIG_LITTLE, DEFAULT_PARAMETERS)
        scheduler = VersaSlotBigLittle(board, DEFAULT_PARAMETERS)
        app = scheduler.submit(ApplicationInstance(BENCHMARKS["3DR"], 8, 0.0))
        engine.run(until=400.0)  # a bundle is loaded in a Big slot
        run = next(r for r in app.loaded.values() if isinstance(r, BundleRun))
        assert check_app_run(app) == []
        run.preempt_requested = True
        app.used_little += 1
        problems = check_app_run(app)
        assert f"3DR#0: bundle {run.bundle.name} was asked to preempt" in problems
        assert f"3DR#0: holds {app.used_big} Big and 1 Little slots at once" in problems

    def test_unbalanced_resource_is_flagged(self):
        from repro.verify.invariants import check_quiescent

        refs = _instrumented_scheduler()
        core = refs["board"].ps.scheduler_core
        core.acquire()  # grant never released
        problems = check_quiescent(refs["engine"], refs["scheduler"])
        assert any("never released" in p for p in problems)
