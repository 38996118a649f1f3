"""Deterministic fault injection + the supervised fleet control plane.

Covers the chaos subsystem end to end: fault schedules as pure data,
the shard-actor transition table, supervised serving plans
(kill/reroute/recover walks, degraded-mode shedding; fault-free plans
are pinned by sha256 in ``tests/test_fleet.py``), the no-lost-requests
invariants, the committed ``fleet-chaos`` scenario, event-log replay
parity, and the fault-aware fuzzer with its faults-first shrink ordering.
"""

import dataclasses
import json

import pytest

from repro.chaos import (
    FAULT_KINDS,
    FaultSchedule,
    FaultSpec,
    sample_fault_schedule,
)
from repro.fleet import (
    Fleet,
    SHED_CAPACITY_THRESHOLD,
    TRANSITIONS,
    FleetSupervisor,
    ShardActor,
    get_fleet_scenario,
    supervised_partition,
)
from repro.fleet.control import (
    DEAD,
    DRAINING,
    RECOVERING,
    REROUTE_DELAY_MS,
    RESTART_BACKOFF_MS,
    RESTART_MS,
    SERVING,
    WARMING,
    WARMUP_MS,
)
from repro.telemetry import (
    RequestReroutedEvent,
    RequestShedEvent,
    ShardDownEvent,
    ShardRecoveredEvent,
    canonical_line,
    summarize_event_log,
)
from repro.verify.fuzz import FuzzCase, ScenarioFuzzer, _shrink_candidates
from repro.verify.invariants import check_serving_plan
from repro.workloads.generator import Arrival


def _arrivals(times, app="IC", batch=4):
    return [Arrival(app, batch, float(t)) for t in times]


# ---------------------------------------------------------------------------
# Fault schedules
# ---------------------------------------------------------------------------
class TestFaultSchedule:
    def test_sampling_is_deterministic(self):
        a = sample_fault_schedule(7, 4, 30_000.0)
        b = sample_fault_schedule(7, 4, 30_000.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != sample_fault_schedule(8, 4, 30_000.0)

    def test_sampled_schedules_cover_the_kind_space(self):
        kinds = set()
        for seed in range(64):
            kinds.update(
                f.kind for f in sample_fault_schedule(seed, 4, 30_000.0)
            )
        assert kinds == set(FAULT_KINDS)

    def test_round_trip(self):
        schedule = FaultSchedule([
            FaultSpec("kill", 100.0, 0),
            FaultSpec("recover", 900.0, 0),
            FaultSpec("degrade", 50.0, 1, factor=0.5, duration_ms=200.0),
        ])
        clone = FaultSchedule.from_tuples(schedule.to_tuples())
        assert clone == schedule
        # JSON round-trip (the repro-file path) also survives.
        assert FaultSchedule.from_tuples(
            json.loads(json.dumps([list(t) for t in schedule.to_tuples()]))
        ) == schedule

    def test_events_sort_by_time(self):
        schedule = FaultSchedule([
            FaultSpec("kill", 500.0, 1),
            FaultSpec("kill", 100.0, 0),
        ])
        assert [f.at_ms for f in schedule] == [100.0, 500.0]

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("explode", 1.0, 0)
        with pytest.raises(ValueError, match="must be >= 0"):
            FaultSpec("kill", -1.0, 0)
        with pytest.raises(ValueError, match="outside \\(0, 1\\]"):
            FaultSpec("degrade", 1.0, 0, factor=1.5, duration_ms=10.0)
        with pytest.raises(ValueError, match="must be >= 1"):
            FaultSpec("slow", 1.0, 0, factor=0.5, duration_ms=10.0)
        with pytest.raises(ValueError, match="positive duration_ms"):
            FaultSpec("degrade", 1.0, 0, factor=0.5)
        with pytest.raises(ValueError, match="no kill/drain"):
            FaultSchedule([FaultSpec("recover", 1.0, 0)])
        with pytest.raises(ValueError, match="outside \\[0, 2\\)"):
            FaultSchedule([FaultSpec("kill", 1.0, 5)]).validate_for(2)


# ---------------------------------------------------------------------------
# The transition table
# ---------------------------------------------------------------------------
class TestShardActor:
    def test_full_lifecycle_walk(self):
        actor = ShardActor(0)
        assert actor.state == SERVING
        actor.transition(DEAD, 10.0, "kill")
        actor.transition(RECOVERING, 20.0, "probe-ok")
        actor.transition(WARMING, 25.0, "restart-done")
        actor.transition(SERVING, 35.0, "warmup-done")
        actor.transition(DRAINING, 40.0, "drain")
        actor.transition(DEAD, 45.0, "drain")
        assert [s for _, s, _ in actor.history] == [
            SERVING, DEAD, RECOVERING, WARMING, SERVING, DRAINING, DEAD,
        ]

    def test_illegal_transitions_raise(self):
        for from_state, allowed in TRANSITIONS.items():
            for to_state in TRANSITIONS:
                actor = ShardActor(0)
                actor.state = from_state
                if to_state in allowed:
                    actor.transition(to_state, 1.0)
                else:
                    with pytest.raises(ValueError, match="illegal transition"):
                        actor.transition(to_state, 1.0)

    def test_state_at_walks_history(self):
        actor = ShardActor(3)
        actor.transition(DEAD, 10.0, "kill")
        actor.transition(RECOVERING, 20.0, "probe-ok")
        assert actor.state_at(5.0) == SERVING
        assert actor.state_at(10.0) == DEAD
        assert actor.state_at(19.9) == DEAD
        assert actor.state_at(20.0) == RECOVERING


# ---------------------------------------------------------------------------
# Kill, reroute, recover
# ---------------------------------------------------------------------------
class TestKillAndReroute:
    def test_kill_reroutes_in_flight_requests(self):
        # First admission batch snapshot is all-zero, so least-loaded
        # sends every arrival at t=0 to shard 0; the kill then bumps all
        # of them onto shard 1.
        arrivals = _arrivals([0.0, 0.0, 0.0, 0.0])
        plan = supervised_partition(
            arrivals, 2, "least-loaded", 1,
            FaultSchedule([FaultSpec("kill", 1.0, 0)]),
        )
        assert plan.served_count == 4
        assert plan.shed_count == 0
        for record in plan.ledger:
            assert record.disposition == "served"
            assert record.shard == 1
            assert record.rerouted_from == (0,)
            assert record.time_ms == 1.0 + REROUTE_DELAY_MS
        assert [len(s) for s in plan.streams] == [0, 4]
        downs = [e for e in plan.events if isinstance(e, ShardDownEvent)]
        reroutes = [
            e for e in plan.events if isinstance(e, RequestReroutedEvent)
        ]
        assert len(downs) == 1 and downs[0].reason == "kill"
        assert len(reroutes) == 4
        assert all(e.from_shard == 0 and e.to_shard == 1 for e in reroutes)
        assert check_serving_plan(plan, arrivals) == []

    def test_no_live_shards_sheds_even_admitted_requests(self):
        arrivals = _arrivals([0.0, 5000.0])
        plan = supervised_partition(
            arrivals, 2, "least-loaded", 1,
            FaultSchedule([
                FaultSpec("kill", 1.0, 0), FaultSpec("kill", 1.0, 1),
            ]),
        )
        assert plan.served_count == 0
        assert plan.shed_count == 2
        admitted, fresh = plan.ledger
        # The in-flight request was bumped off its shard before shedding.
        assert admitted.rerouted_from == (0,)
        assert admitted.shed_reason == "no-live-shards"
        assert fresh.rerouted_from == ()
        assert fresh.shed_reason == "no-live-shards"
        assert check_serving_plan(plan, arrivals) == []

    def test_kill_then_recover_walks_the_supervision_path(self):
        arrivals = _arrivals([0.0, 10_000.0])
        plan = supervised_partition(
            arrivals, 2, "least-loaded", 1,
            FaultSchedule([
                FaultSpec("kill", 1000.0, 0),
                FaultSpec("recover", 2500.0, 0),
            ]),
        )
        # First probe at kill + RESTART_BACKOFF_MS lands after the
        # recover mark, so the shard restarts on the first attempt.
        probe_ms = 1000.0 + RESTART_BACKOFF_MS
        states = [(t, s) for t, s, _ in plan.histories[0]]
        assert states == [
            (0.0, SERVING),
            (1000.0, DEAD),
            (probe_ms, RECOVERING),
            (probe_ms + RESTART_MS, WARMING),
            (probe_ms + RESTART_MS + WARMUP_MS, SERVING),
        ]
        ups = [e for e in plan.events if isinstance(e, ShardRecoveredEvent)]
        assert len(ups) == 1
        assert ups[0].shard == 0
        assert ups[0].downtime_ms == (
            probe_ms + RESTART_MS + WARMUP_MS - 1000.0
        )
        assert plan.served_count == 2
        assert check_serving_plan(plan, arrivals) == []

    def test_unrecoverable_shard_stays_dead(self):
        arrivals = _arrivals([0.0])
        plan = supervised_partition(
            arrivals, 2, "least-loaded", 1,
            FaultSchedule([FaultSpec("kill", 1.0, 0)]),
        )
        assert [s for _, s, _ in plan.histories[0]][-1] == DEAD
        assert not any(
            isinstance(e, ShardRecoveredEvent) for e in plan.events
        )

    def test_drain_lets_residents_finish_then_downs_the_shard(self):
        arrivals = _arrivals([0.0])
        plan = supervised_partition(
            arrivals, 2, "least-loaded", 1,
            FaultSchedule([FaultSpec("drain", 1.0, 0)]),
        )
        record = plan.ledger[0]
        # The resident finished on its original shard — no reroute.
        assert record.disposition == "served"
        assert record.shard == 0
        assert record.rerouted_from == ()
        history = [(s, r) for _, s, r in plan.histories[0]]
        assert (DRAINING, "drain") in history
        assert history[-1] == (DEAD, "drain")
        assert check_serving_plan(plan, arrivals) == []


# ---------------------------------------------------------------------------
# Degraded-mode shedding
# ---------------------------------------------------------------------------
class TestShedding:
    def test_threshold_is_strict(self):
        # One of two shards dead -> capacity exactly 0.5, NOT below the
        # 0.5 threshold: fresh arrivals are still admitted.
        arrivals = _arrivals([0.0, 5000.0])
        plan = supervised_partition(
            arrivals, 2, "least-loaded", 1,
            FaultSchedule([FaultSpec("kill", 1.0, 0)]),
        )
        assert plan.shed_threshold == SHED_CAPACITY_THRESHOLD == 0.5
        assert plan.ledger[1].disposition == "served"
        assert plan.shed_windows == []

    def test_raised_threshold_sheds_fresh_arrivals_only(self):
        arrivals = _arrivals([0.0, 5000.0])
        plan = supervised_partition(
            arrivals, 2, "least-loaded", 1,
            FaultSchedule([FaultSpec("kill", 1.0, 0)]),
            shed_threshold=0.6,
        )
        admitted, fresh = plan.ledger
        # The in-flight request reroutes despite the degraded capacity —
        # only *fresh* admissions respect the threshold.
        assert admitted.disposition == "served"
        assert admitted.rerouted_from == (0,)
        assert fresh.disposition == "shed"
        assert fresh.shed_reason == "degraded-capacity"
        assert len(plan.shed_windows) == 1
        assert plan.shed_windows[0] == (1.0, None)  # never recovers
        sheds = [e for e in plan.events if isinstance(e, RequestShedEvent)]
        assert [e.reason for e in sheds] == ["degraded-capacity"]
        assert check_serving_plan(plan, arrivals) == []

    def test_degrade_fault_counts_against_capacity(self):
        # degrade shard 0 to 0.2: capacity (0.2 + 1.0) / 2 = 0.6 >= 0.5
        # serves; killing shard 1 inside the window drops it to 0.1 < 0.5.
        arrivals = _arrivals([0.0, 5000.0, 6000.0])
        plan = supervised_partition(
            arrivals, 2, "least-loaded", 1,
            FaultSchedule([
                FaultSpec(
                    "degrade", 4000.0, 0, factor=0.2, duration_ms=50_000.0
                ),
                FaultSpec("kill", 5500.0, 1),
            ]),
        )
        assert plan.ledger[1].disposition == "served"
        assert plan.ledger[2].disposition == "shed"
        assert plan.ledger[2].shed_reason == "degraded-capacity"


# ---------------------------------------------------------------------------
# The committed fleet-chaos scenario
# ---------------------------------------------------------------------------
class TestFleetChaosScenario:
    def _plan(self):
        return Fleet(get_fleet_scenario("fleet-chaos")).serving_plan(1)

    def test_committed_counts(self):
        plan = self._plan()
        assert plan.summary() == {
            "policy": "least-loaded",
            "seed": 1,
            "n_shards": 4,
            "faults": 6,
            "served": 17,
            "shed": 7,
            "reroutes": 3,
            "shed_windows": 1,
        }

    def test_shedding_engages_and_disengages_at_the_threshold(self):
        plan = self._plan()
        # Third kill at t=12000 drops live capacity to 1/4 < 1/2 ->
        # shedding engages; the third recovered shard re-enters service
        # at 23500 (probe 22000 + restart 500 + warmup 1000) -> capacity
        # back to 1/2, shedding disengages.
        assert plan.shed_windows == [(12000.0, 23500.0)]
        for record in plan.ledger:
            if record.disposition == "shed":
                assert record.shed_reason == "degraded-capacity"
                assert 12000.0 <= record.time_ms < 23500.0

    def test_recovered_shards_rejoin_with_exact_downtimes(self):
        plan = self._plan()
        ups = {
            e.shard: e.downtime_ms
            for e in plan.events
            if isinstance(e, ShardRecoveredEvent)
        }
        # Each kill probes at +2000/+6000/+14000 (doubling backoff); the
        # recover mark lands between the second and third probe for all
        # three shards, so each takes the full 14000 ms of probing plus
        # 500 ms restart plus 1000 ms warmup.
        assert ups == {0: 15500.0, 1: 15500.0, 2: 15500.0}

    def test_plan_is_deterministic_and_invariant_clean(self):
        scenario = get_fleet_scenario("fleet-chaos")
        a, b = self._plan(), self._plan()
        assert [dataclasses.astuple(r) for r in a.ledger] == \
            [dataclasses.astuple(r) for r in b.ledger]
        assert [canonical_line(e) for e in a.events] == \
            [canonical_line(e) for e in b.events]
        arrivals = scenario.workload.arrivals(1)
        assert check_serving_plan(a, arrivals) == []

    def test_serial_and_parallel_runs_are_bit_identical(self, tmp_path):
        fleet = Fleet(get_fleet_scenario("fleet-chaos"))
        serial = fleet.run(jobs=1)
        parallel = fleet.run(jobs=3)
        assert [r.to_dict() for r in serial.records] == \
            [r.to_dict() for r in parallel.records]
        assert serial.rollup.shed == parallel.rollup.shed == 7
        assert serial.rollup.rerouted == parallel.rollup.rerouted == 3
        assert "shed 7, rerouted 3" in serial.rollup.table()

    def test_admission_event_log_replays_to_identical_rollups(self, tmp_path):
        fleet = Fleet(get_fleet_scenario("fleet-chaos"))
        fleet.run(jobs=1, events_dir=tmp_path)
        log = tmp_path / "fleet-chaos-admission-seed1.jsonl"
        assert log.exists()
        summary = summarize_event_log(log)
        counters = summary["counters"]
        assert counters["admissions"] == 17
        assert counters["sheds"] == 7
        assert counters["reroutes"] == 3
        assert counters["shard_downs"] == 3
        assert counters["shard_ups"] == 3
        # Replay is a pure function of the log.
        assert summarize_event_log(log) == summary

    def test_scaling_drops_out_of_range_faults(self):
        scenario = get_fleet_scenario("fleet-chaos").scaled(n_shards=2)
        assert all(f[2] < 2 for f in scenario.faults)
        assert scenario.fault_schedule()  # kills for shards 0/1 survive


# ---------------------------------------------------------------------------
# Fault-aware fuzzing
# ---------------------------------------------------------------------------
class TestChaosFuzzing:
    def test_chaos_cases_are_faulted_fleet_cases(self):
        fuzzer = ScenarioFuzzer(0, chaos=True)
        cases = list(fuzzer.cases(8))
        assert all(case.is_fleet for case in cases)
        assert all(case.faults for case in cases)
        # Sampling is deterministic: the same index resamples identically.
        assert fuzzer.case(3) == cases[3]

    def test_chaos_plans_hold_the_no_lost_requests_invariant(self):
        for case in ScenarioFuzzer(0, chaos=True).cases(8):
            assert case.plan_violations() == []

    def test_chaos_requires_a_fleet_scenario(self):
        with pytest.raises(KeyError, match="needs a fleet scenario"):
            ScenarioFuzzer(0, scenario="smoke", chaos=True)

    def test_faults_require_a_fleet_case(self):
        with pytest.raises(ValueError, match="faults require a fleet case"):
            FuzzCase(
                case_id=0, system="FCFS", condition="LOOSE", n_apps=2,
                batch_lo=1, batch_hi=2, seed=1,
                faults=(("kill", 1.0, 0, 1.0, 0.0),),
            )

    def test_fault_fields_round_trip_through_repro_payload(self):
        case = next(
            c for c in ScenarioFuzzer(0, chaos=True).cases(4) if c.faults
        )
        clone = FuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
        assert clone == case
        assert clone.fault_schedule() == case.fault_schedule()

    def test_shrinking_drops_faults_first(self):
        case = next(
            c for c in ScenarioFuzzer(0, chaos=True).cases(4) if c.faults
        )
        candidates = list(_shrink_candidates(case))
        assert candidates[0].faults == ()
        assert candidates[0].n_shards == case.n_shards
        # The fleet-drop candidate also clears the schedule (a fault
        # schedule cannot outlive its fleet).
        flat = next(c for c in candidates if not c.is_fleet)
        assert flat.faults == ()

    def test_verify_cli_chaos_flags(self, capsys):
        from repro.cli import main

        assert main(["verify", "--chaos"]) == 2
        assert "requires --fuzz" in capsys.readouterr().err
        assert main(["verify", "--fuzz", "2", "--chaos", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "chaos-fuzzing 2 cases" in out
        assert "all 2 cases bit-identical" in out


# ---------------------------------------------------------------------------
# Kernel bit-identity under faults
# ---------------------------------------------------------------------------
class TestKernelIdentityUnderFaults:
    def test_fleet_chaos_sweeps_clean_on_heap_and_wheel(self, capsys):
        from repro.cli import main

        assert main(["verify", "--scenario", "fleet-chaos"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical across kernels" in out
