"""Determinism and semantics of the kernel hot-path overhaul.

The PR-2 overhaul (``__slots__`` events, the timeout fast lane, bare-delay
yields, pooled sleeps, incremental run-state) must be *invisible* to model
code: these tests pin the kernel's observable behaviour against golden
fingerprints captured from the pre-overhaul seed kernel
(``tests/data/golden_kernel.json`` / ``golden_kernel_stress.json``), so
any event reordering — however subtle — fails loudly.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.apps import ApplicationInstance, BENCHMARKS, reset_instance_ids
from repro.campaign import simulate_run
from repro.config import DEFAULT_PARAMETERS
from repro.core import make_versaslot
from repro.experiments import run_fig5
from repro.experiments.runner import SYSTEMS
from repro.fpga import BoardConfig, FPGABoard
from repro.sim import (
    AllOf,
    AnyOf,
    Engine,
    Event,
    Interrupt,
    Resource,
    Store,
    Timeout,
    Tracer,
)
from repro.sim.engine import PooledTimeout
from repro.verify.oracle import trace_lines
from repro.workloads import Condition, WorkloadGenerator, drive

DATA = Path(__file__).parent / "data"


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_instance_ids()


# ----------------------------------------------------------------------
# Golden fingerprints captured from the seed kernel
# ----------------------------------------------------------------------
class TestGoldenKernelStress:
    """A pure-kernel scenario logging at every resume pins event order.

    Exercises chained timeouts (fast-lane), bare events, AllOf/AnyOf,
    FIFO resources under contention, stores, interrupts during timeout
    waits and process joins — all interleaved at identical sim times.

    ``engine_factory`` is overridable so the verify suite can pin the
    reference kernel against the same goldens (tests/test_verify_oracle).
    """

    engine_factory = staticmethod(Engine)

    def _run(self):
        engine = self.engine_factory()
        log = []
        resource = Resource(engine, capacity=2, name="mutex")
        store = Store(engine, name="queue")

        def ticker(tag, delay, n):
            for i in range(n):
                yield engine.timeout(delay)
                log.append((engine.now, "tick", tag, i))

        def worker(tag):
            for i in range(4):
                request = resource.acquire()
                yield request
                log.append((engine.now, "grant", tag, i))
                yield engine.timeout(1.5)
                resource.release()
                store.put((tag, i))

        def consumer():
            for i in range(12):
                item = yield store.get()
                log.append((engine.now, "got", item, i))

        def sleeper(tag, delay):
            try:
                yield engine.timeout(delay)
                log.append((engine.now, "woke", tag, None))
            except Interrupt as exc:
                log.append((engine.now, "interrupted", tag, str(exc.cause)))
                return "stopped"
            return "done"

        def interrupter(victim, after):
            yield engine.timeout(after)
            victim.interrupt("preempt")

        def joiner(tag, procs):
            values = yield AllOf(engine, list(procs))
            log.append((engine.now, "joined", tag, tuple(values)))
            first = yield AnyOf(
                engine, [engine.timeout(3.0, "t"), engine.timeout(5.0, "u")]
            )
            log.append((engine.now, "first", tag, first))

        for k, (d, n) in enumerate([(1.0, 8), (0.7, 11), (2.3, 4)]):
            engine.process(ticker(f"t{k}", d, n))
        for k in range(3):
            engine.process(worker(f"w{k}"))
        engine.process(consumer())
        victims = [engine.process(sleeper(f"s{k}", 40.0 + k)) for k in range(3)]
        engine.process(interrupter(victims[1], 6.5))
        engine.process(joiner("j", victims))
        engine.run()
        return log, engine.now

    def test_log_matches_seed_kernel(self):
        golden = json.loads((DATA / "golden_kernel_stress.json").read_text())
        log, now = self._run()
        assert now == golden["final_now"]
        assert [list(map(repr, entry)) for entry in log] == golden["log"]

    def test_replay_is_deterministic(self):
        assert self._run() == self._run()


class TestGoldenSimulation:
    """Full-stack fingerprints: traces, response samples, figure values."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads((DATA / "golden_kernel.json").read_text())

    def test_traced_versaslot_run_bit_identical(self, golden):
        engine = Engine()
        board = FPGABoard(engine, BoardConfig.BIG_LITTLE, DEFAULT_PARAMETERS)
        tracer = Tracer()
        scheduler = make_versaslot(board, DEFAULT_PARAMETERS, tracer)
        arrivals = WorkloadGenerator(7).sequence(Condition.STRESS, n_apps=10)
        engine.process(drive(engine, scheduler, arrivals))
        engine.run(until=50_000_000)
        # The one canonical rendering: the verify oracle fingerprints with
        # the same function, so goldens and fingerprints stay comparable.
        lines = trace_lines(tracer)
        assert len(lines) == golden["trace_len"]
        assert lines[:5] == golden["trace_head"]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == golden["trace_sha256"]
        assert scheduler.stats.completions == golden["completions"]

    @pytest.mark.parametrize("system", list(SYSTEMS))
    def test_per_system_responses_bit_identical(self, golden, system):
        arrivals = WorkloadGenerator(21).sequence(Condition.STRESS, n_apps=8)
        result = simulate_run(system, arrivals)
        expected = golden["systems"][system]
        assert result.stats.response_times_ms() == expected["samples_ms"]
        assert result.stats.pr_count == expected["pr_count"]
        assert result.stats.preemptions == expected["preemptions"]
        assert result.stats.launches == expected["launches"]
        assert result.makespan_ms == expected["makespan_ms"]

    def test_fig5_reductions_bit_identical(self, golden):
        result = run_fig5(seed=1, sequence_count=1, n_apps=8)
        assert result.reductions == golden["fig5_reductions"]


# ----------------------------------------------------------------------
# Fast-lane semantics
# ----------------------------------------------------------------------
class TestTimeoutFastLane:
    def test_interrupt_during_fast_lane_wait(self):
        """Interrupting a process parked on a fast-lane timeout.

        The interrupt must detach the process (clearing the fast-lane
        registration, not the callback list), the abandoned timeout must
        still dispatch harmlessly, and the process must be able to wait
        again afterwards.
        """
        engine = Engine()
        log = []

        def sleeper():
            try:
                yield engine.timeout(100.0)
                log.append("woke-early")
            except Interrupt as exc:
                log.append(("interrupted", engine.now, exc.cause))
            yield engine.timeout(5.0)  # a fresh fast-lane wait still works
            log.append(("slept-again", engine.now))
            return "ok"

        process = engine.process(sleeper())

        def interrupter():
            yield engine.timeout(10.0)
            process.interrupt("stop")

        engine.process(interrupter())
        engine.run()
        assert log == [("interrupted", 10.0, "stop"), ("slept-again", 15.0)]
        assert process.value == "ok"
        # The abandoned timeout fired at t=100 with no waiters; the clock
        # still advanced past it without error.
        assert engine.now == 100.0

    def test_interrupt_during_bare_delay_wait(self):
        engine = Engine()
        seen = []

        def sleeper():
            try:
                yield 100.0
            except Interrupt as exc:
                seen.append((engine.now, exc.cause))
                return "stopped"
            return "finished"

        process = engine.process(sleeper())

        def interrupter():
            yield 2.5
            process.interrupt("cut")

        engine.process(interrupter())
        engine.run()
        assert seen == [(2.5, "cut")]
        assert process.value == "stopped"

    def test_late_callback_runs_after_fast_process(self):
        """A callback added after a process is fast-lane registered still
        runs — after the process, preserving registration order."""
        engine = Engine()
        order = []
        timeout = engine.timeout(1.0)

        def waiter():
            yield timeout
            order.append("process")

        def late_listener():
            yield engine.timeout(0.5)
            # By now the waiter is fast-lane registered on ``timeout``.
            timeout.callbacks.append(lambda event: order.append("callback"))

        engine.process(waiter())
        engine.process(late_listener())
        engine.run()
        assert order == ["process", "callback"]

    def test_early_callback_runs_before_fast_process(self):
        """Waiters run in registration order: a callback appended before
        the process yields keeps its head-of-line position."""
        engine = Engine()
        order = []
        timeout = engine.timeout(1.0)
        timeout.callbacks.append(lambda event: order.append("callback"))

        def waiter():
            yield timeout
            order.append("process")

        engine.process(waiter())
        engine.run()
        assert order == ["callback", "process"]

    def test_two_processes_one_timeout_fifo(self):
        engine = Engine()
        order = []
        timeout = engine.timeout(1.0)

        def waiter(tag):
            yield timeout
            order.append(tag)

        engine.process(waiter("first"))
        engine.process(waiter("second"))
        engine.run()
        assert order == ["first", "second"]


class TestBareDelayYields:
    def test_bare_delay_advances_clock(self):
        engine = Engine()

        def proc():
            yield 1.5
            yield 2  # ints work too
            return engine.now

        process = engine.process(proc())
        engine.run()
        assert process.value == 3.5

    def test_bare_delay_resumes_with_none(self):
        engine = Engine()

        def proc():
            value = yield 1.0
            return value

        process = engine.process(proc())
        engine.run()
        assert process.value is None

    def test_negative_bare_delay_fails_process(self):
        engine = Engine()

        def proc():
            yield -1.0

        engine.process(proc())
        with pytest.raises(RuntimeError, match="negative delay"):
            engine.run()

    def test_non_event_yield_still_rejected(self):
        engine = Engine()

        def proc():
            yield "soon"

        engine.process(proc())
        with pytest.raises(RuntimeError, match="non-event"):
            engine.run()

    def test_bool_is_not_a_delay(self):
        # bool subclasses int, but ``yield True`` is almost certainly a
        # bug in model code — it must not silently sleep for 1ms.
        engine = Engine()

        def proc():
            yield True

        engine.process(proc())
        with pytest.raises(RuntimeError, match="non-event"):
            engine.run()


class TestPooledSleep:
    def test_sleep_behaves_like_timeout(self):
        engine = Engine()
        ticks = []

        def proc():
            for _ in range(5):
                yield engine.sleep(2.0)
                ticks.append(engine.now)

        engine.process(proc())
        engine.run()
        assert ticks == [2.0, 4.0, 6.0, 8.0, 10.0]

    def test_sleep_value_passthrough(self):
        engine = Engine()

        def proc():
            got = yield engine.sleep(1.0, "payload")
            return got

        process = engine.process(proc())
        engine.run()
        assert process.value == "payload"

    def test_sleep_rejects_negative_delay(self):
        engine = Engine()
        with pytest.raises(ValueError, match="negative delay"):
            engine.sleep(-0.1)

    def test_sleeps_recycle_through_the_pool(self):
        """Steady-state sleep loops ping-pong between two pooled objects.

        The next sleep is requested while the previous one is still being
        dispatched (its recycle happens right after the resume), so a
        tight loop alternates between exactly two recycled instances
        instead of allocating fifty.
        """
        engine = Engine()
        identities = set()

        def proc():
            for _ in range(50):
                timeout = engine.sleep(1.0)
                identities.add(id(timeout))
                yield timeout

        engine.process(proc())
        engine.run()
        assert len(identities) == 2
        assert 1 <= len(engine._timeout_pool) <= 2
        assert all(isinstance(t, PooledTimeout) for t in engine._timeout_pool)

    def test_pool_not_poisoned_by_external_listener(self):
        """A sleep timeout that gained a second listener is not recycled."""
        engine = Engine()
        observed = []

        def proc():
            timeout = engine.sleep(3.0)
            timeout.callbacks.append(lambda event: observed.append(engine.now))
            yield timeout

        engine.process(proc())
        engine.run()
        assert observed == [3.0]
        assert engine._timeout_pool == []


# ----------------------------------------------------------------------
# Condition events and resource accounting after the O(1) rewrites
# ----------------------------------------------------------------------
class TestAllOfLinear:
    def test_wide_fan_in_value_order(self):
        engine = Engine()
        children = [engine.timeout(float(i % 7), value=i) for i in range(500)]

        def waiter():
            values = yield AllOf(engine, children)
            return values

        process = engine.process(waiter())
        engine.run()
        assert process.value == list(range(500))

    def test_duplicate_children_counted_per_occurrence(self):
        engine = Engine()
        timeout = engine.timeout(1.0, value="x")

        def waiter():
            values = yield AllOf(engine, [timeout, timeout])
            return values

        process = engine.process(waiter())
        engine.run()
        assert process.value == ["x", "x"]

    def test_fail_fast_on_first_failure(self):
        engine = Engine()
        good = engine.timeout(5.0)
        bad = Event(engine)

        def failer():
            yield 1.0
            bad.fail(KeyError("boom"))

        def waiter():
            try:
                yield AllOf(engine, [good, bad])
            except KeyError:
                return engine.now
            return None

        engine.process(failer())
        process = engine.process(waiter())
        engine.run()
        assert process.value == 1.0  # failed before `good` fired at t=5


class TestRequestWaitAccounting:
    def test_wait_started_records_enqueue_time(self):
        engine = Engine()
        resource = Resource(engine, capacity=1)

        def holder():
            request = resource.acquire()
            yield request
            yield 10.0
            resource.release()

        def waiter():
            request = resource.acquire()
            assert request.wait_started == engine.now
            yield request
            resource.release()

        engine.process(holder())

        def spawn_waiter():
            yield 4.0
            engine.process(waiter())

        engine.process(spawn_waiter())
        engine.run()
        # The waiter queued at t=4 and was granted at t=10: 6ms of wait.
        assert resource.total_wait_time == pytest.approx(6.0)
        assert resource.total_grants == 2

    def test_uncontended_acquire_has_zero_wait(self):
        engine = Engine()
        resource = Resource(engine, capacity=2)

        def worker():
            request = resource.acquire()
            yield request
            yield 1.0
            resource.release()

        engine.process(worker())
        engine.process(worker())
        engine.run()
        assert resource.total_wait_time == 0.0
        assert resource.total_grants == 2
