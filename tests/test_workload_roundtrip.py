"""Workload serialization round-trips (workloads/trace.py + phases.py).

The trace format must preserve arrivals *bit-exactly*: a serialized and
replayed sequence has to drive a simulation to the identical outcome, or
archived workloads silently stop reproducing published numbers.
"""

import pytest

from repro.apps import reset_instance_ids
from repro.campaign import simulate_run
from repro.workloads import (
    Condition,
    Phase,
    PhasedWorkload,
    WorkloadSpec,
    dumps,
    load,
    loads,
    poisson_sequence,
    ramp_workload,
    save,
)


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_instance_ids()


class TestPhasedRoundTrip:
    def test_phased_workload_round_trips(self):
        workload = PhasedWorkload(
            [Phase(6, 100.0, 200.0), Phase(4, 10.0, 20.0), Phase(5, 500.0, 500.0)],
            seed=17,
        )
        arrivals = workload.generate()
        assert loads(dumps(arrivals)) == arrivals

    def test_ramp_workload_round_trips(self):
        arrivals = ramp_workload(
            3, 24, relaxed_ms=(800.0, 1000.0), dense_ms=(100.0, 150.0)
        )
        assert loads(dumps(arrivals)) == arrivals

    def test_poisson_round_trips_float_precision(self):
        """Exponential intervals produce full-precision floats; the text
        format must round-trip them exactly (repr round-trip)."""
        arrivals = poisson_sequence(5, 40, mean_interval_ms=123.456)
        replayed = loads(dumps(arrivals))
        assert replayed == arrivals
        assert [a.time_ms for a in replayed] == [a.time_ms for a in arrivals]

    def test_file_round_trip(self, tmp_path):
        arrivals = PhasedWorkload([Phase(8, 50.0, 120.0)], seed=2).generate()
        path = tmp_path / "phased.trace"
        save(arrivals, path)
        assert load(path) == arrivals

    def test_workload_spec_sequence_round_trips(self):
        spec = WorkloadSpec(Condition.STANDARD, n_apps=12, sequence_count=2)
        for index in range(spec.sequence_count):
            arrivals = spec.sequence(seed=4, index=index)
            assert loads(dumps(arrivals)) == arrivals


class TestReplayDrivesIdenticalSimulation:
    def test_replayed_arrivals_simulate_identically(self):
        """generate -> serialize -> replay -> simulate == simulate(original)."""
        arrivals = ramp_workload(
            9, 8, relaxed_ms=(400.0, 600.0), dense_ms=(80.0, 120.0)
        )
        replayed = loads(dumps(arrivals))
        reset_instance_ids()
        original_result = simulate_run("Nimblock", arrivals)
        reset_instance_ids()
        replayed_result = simulate_run("Nimblock", replayed)
        assert replayed_result.stats.response_times_ms() == (
            original_result.stats.response_times_ms()
        )
        assert replayed_result.makespan_ms == original_result.makespan_ms
        assert replayed_result.stats.pr_count == original_result.stats.pr_count


class TestPhaseValidation:
    def test_phase_rejects_bad_counts_and_intervals(self):
        with pytest.raises(ValueError, match="count"):
            Phase(0, 10.0, 20.0)
        with pytest.raises(ValueError, match="interval"):
            Phase(1, 0.0, 20.0)
        with pytest.raises(ValueError, match="interval"):
            Phase(1, 30.0, 20.0)

    def test_phased_workload_needs_phases(self):
        with pytest.raises(ValueError, match="at least one phase"):
            PhasedWorkload([], seed=1)

    def test_total_apps_sums_phases(self):
        workload = PhasedWorkload(
            [Phase(5, 10.0, 20.0), Phase(7, 10.0, 20.0)], seed=1
        )
        assert workload.total_apps == 12
        assert len(workload.generate()) == 12
