"""The event-sourced telemetry spine: digests, bus, sinks, replay, CLI.

Covers the PR-5 acceptance surface:

* digest-vs-exact equivalence (p50/p95/p99 within the documented bound on
  uniform / Pareto / Zipf workloads) and exact mean parity;
* digest merge associativity across shards (quantile state exactly,
  moments to float precision);
* bounded memory at 1e6 samples (the fleet-scale digest path);
* bit-identical event-log replay → report parity, including against the
  PR-2 golden fingerprints;
* the fingerprint sink reproducing the oracle's bespoke plumbing;
* crash-safe results persistence (atomic write, fsynced appends,
  truncated-trailing-line recovery);
* the ``--json`` CLI surfaces;
* the overhead gate script's workload and exit code.
"""

import importlib.util
import json
from pathlib import Path

import pytest

try:
    import numpy as np
except ImportError:  # numpy is a test-only reference: only the
    np = None        # digest-accuracy data generation below needs it

needs_numpy = pytest.mark.skipif(np is None, reason="numpy not installed")

from repro.apps import reset_instance_ids
from repro.campaign.backend import CampaignCell, execute_cell, simulate_run
from repro.cli import main as cli_main
from repro.metrics.response import ResponseStats
from repro.telemetry import (
    EVENT_TYPES,
    ArrivalEvent,
    CompletionEvent,
    FingerprintSink,
    JsonlEventLogSink,
    LaunchEvent,
    MigrationEvent,
    N_BUCKETS,
    PreemptionEvent,
    QUANTILE_REL_ERROR,
    RequestReroutedEvent,
    RequestShedEvent,
    ResponseDigest,
    ShardAdmissionEvent,
    ShardDownEvent,
    ShardRecoveredEvent,
    SlotTransitionEvent,
    StreamingAggregationSink,
    TelemetryBus,
    TelemetrySink,
    canonical_line,
    digest_of,
    event_from_dict,
    load_events,
    merge_digests,
    replay_aggregation,
    sniff_event_log,
    summarize_event_log,
)
from repro.workloads import Condition, WorkloadGenerator
from repro.workloads.generator import WorkloadSpec


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_instance_ids()


def _workloads():
    rng = np.random.default_rng(7)
    uniform = rng.uniform(10.0, 5000.0, size=20_000)
    pareto = (rng.pareto(1.5, size=20_000) + 1.0) * 50.0
    zipf = np.minimum(rng.zipf(2.0, size=20_000), 10_000) * 12.5
    return {"uniform": uniform, "pareto": pareto, "zipf": zipf}


# ----------------------------------------------------------------------
# ResponseDigest: accuracy, mergeability, memory
# ----------------------------------------------------------------------
class TestResponseDigest:
    @needs_numpy
    @pytest.mark.parametrize("name", ["uniform", "pareto", "zipf"])
    def test_quantiles_within_documented_bound(self, name):
        samples = _workloads()[name]
        digest = digest_of(samples.tolist())
        for q in (50.0, 95.0, 99.0):
            exact = float(np.percentile(samples, q))
            estimate = digest.percentile(q)
            rel = abs(estimate - exact) / exact
            assert rel <= QUANTILE_REL_ERROR * 1.2, (
                f"{name} p{q}: {estimate} vs exact {exact} (rel {rel:.5f})"
            )

    @needs_numpy
    def test_mean_is_bit_identical_to_running_sum(self):
        samples = _workloads()["pareto"].tolist()
        digest = digest_of(samples)
        assert digest.mean() == sum(samples) / len(samples)
        assert digest.count == len(samples)

    def test_min_max_and_edge_percentiles_exact(self):
        samples = [13.25, 999.5, 2.0, 47.0]
        digest = digest_of(samples)
        assert digest.percentile(0.0) == 2.0
        assert digest.percentile(100.0) == 999.5
        assert digest.min_ms == 2.0 and digest.max_ms == 999.5

    @needs_numpy
    def test_variance_matches_numpy(self):
        samples = _workloads()["uniform"]
        digest = digest_of(samples.tolist())
        assert digest.variance() == pytest.approx(float(np.var(samples)), rel=1e-9)

    def test_negative_sample_message_parity(self):
        digest = ResponseDigest()
        with pytest.raises(ValueError, match="negative response time -3.0"):
            digest.add(-3.0)

    @needs_numpy
    def test_streaming_equals_batch_bitwise(self):
        """extend() is a loop of add(): sink-fed and batch-built digests
        of the same stream serialize identically."""
        samples = _workloads()["zipf"].tolist()[:5000]
        streamed = ResponseDigest()
        for value in samples:
            streamed.add(value)
        assert streamed.to_dict() == digest_of(samples).to_dict()

    @needs_numpy
    def test_merge_matches_pooled_quantile_state_exactly(self):
        samples = _workloads()["pareto"].tolist()
        a, b = digest_of(samples[:7000]), digest_of(samples[7000:])
        merged = merge_digests([a, b])
        pooled = digest_of(samples)
        assert merged._buckets == pooled._buckets
        assert merged.count == pooled.count
        assert merged.min_ms == pooled.min_ms
        assert merged.max_ms == pooled.max_ms
        for q in (50.0, 95.0, 99.0):
            assert merged.percentile(q) == pooled.percentile(q)
        assert merged.mean() == pytest.approx(pooled.mean(), rel=1e-12)
        assert merged.variance() == pytest.approx(pooled.variance(), rel=1e-9)

    @needs_numpy
    def test_merge_is_associative(self):
        samples = _workloads()["uniform"].tolist()
        parts = [
            digest_of(samples[:4000]),
            digest_of(samples[4000:9000]),
            digest_of(samples[9000:]),
        ]
        left = merge_digests([merge_digests(parts[:2]), parts[2]])
        right = merge_digests([parts[0], merge_digests(parts[1:])])
        # Quantile state is exactly associative (integer bucket counts);
        # the Welford moments associate to float precision.
        assert left._buckets == right._buckets
        assert left.count == right.count
        assert left.percentile(95.0) == right.percentile(95.0)
        assert left.mean() == pytest.approx(right.mean(), rel=1e-12)
        assert left.variance() == pytest.approx(right.variance(), rel=1e-9)

    @needs_numpy
    def test_serialization_round_trip_exact(self):
        digest = digest_of(_workloads()["pareto"].tolist()[:3000])
        clone = ResponseDigest.from_dict(
            json.loads(json.dumps(digest.to_dict()))
        )
        assert clone.to_dict() == digest.to_dict()
        assert clone.percentile(99.0) == digest.percentile(99.0)
        assert clone.mean() == digest.mean()

    def test_incompatible_layout_rejected(self):
        payload = digest_of([1.0]).to_dict()
        payload["gamma"] = 1.5
        with pytest.raises(ValueError, match="bucket layout"):
            ResponseDigest.from_dict(payload)

    @needs_numpy
    def test_million_samples_bounded_memory(self):
        """The fleet-scale promise: 1e6 requests, O(1) digest state."""
        rng = np.random.default_rng(3)
        samples = ((rng.pareto(1.3, size=1_000_000) + 1.0) * 40.0)
        digest = ResponseDigest()
        digest.extend(samples.tolist())
        assert digest.count == 1_000_000
        assert len(digest._buckets) <= N_BUCKETS
        for q in (50.0, 95.0, 99.0):
            exact = float(np.percentile(samples, q))
            assert abs(digest.percentile(q) - exact) / exact <= (
                QUANTILE_REL_ERROR * 1.2
            )
        assert digest.mean() == pytest.approx(float(samples.sum()) / 1e6, rel=1e-9)

    def test_empty_digest_refuses_queries(self):
        digest = ResponseDigest()
        with pytest.raises(ValueError, match="no response samples"):
            digest.mean()
        with pytest.raises(ValueError, match="no response samples"):
            digest.percentile(95.0)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            digest_of([1.0]).percentile(101.0)

    def test_merge_with_empty_sides(self):
        samples = [3.0, 7.0, 11.0]
        assert merge_digests([ResponseDigest(), digest_of(samples)]).to_dict() \
            == digest_of(samples).to_dict()
        assert merge_digests([digest_of(samples), ResponseDigest()]).to_dict() \
            == digest_of(samples).to_dict()

    def test_bucket_geometry(self):
        from repro.telemetry import bucket_bounds, bucket_representative

        samples = [0.5, 42.0, 9000.0]
        digest = digest_of(samples)
        for bucket in digest._buckets:
            low, high = bucket_bounds(bucket)
            representative = bucket_representative(bucket)
            assert low <= representative < high or bucket == 0
            assert any(low <= s < high or (bucket == 0 and s < high)
                       for s in samples)
        assert bucket_representative(0) == 0.0
        assert repr(digest).startswith("<ResponseDigest n=3")
        assert repr(ResponseDigest()) == "<ResponseDigest empty>"


class TestVectorizedResponseStats:
    def test_extend_appends_and_validates(self):
        stats = ResponseStats()
        stats.extend([1.0, 2.5, 3.0])
        stats.extend(iter([4.0]))
        assert stats.samples_ms == [1.0, 2.5, 3.0, 4.0]
        assert stats.count == 4

    def test_negative_value_message_parity(self):
        stats = ResponseStats()
        with pytest.raises(ValueError, match="negative response time -2.5"):
            stats.extend([1.0, -2.5, 3.0])
        # validation happens before any append
        assert stats.samples_ms == []

    def test_empty_extend_is_noop(self):
        stats = ResponseStats()
        stats.extend([])
        assert stats.count == 0


# ----------------------------------------------------------------------
# Events and bus
# ----------------------------------------------------------------------
class TestTelemetryEvents:
    EXAMPLES = [
        ShardAdmissionEvent(1.0, "IC", 12, 3),
        ArrivalEvent(2.0, "IC#1", 1, 12),
        LaunchEvent(3.5, 1, 0.25, True),
        SlotTransitionEvent(4.0, "big0", "loaded", "IC-b0", 1),
        PreemptionEvent(5.0, "OF#2", "of-t3"),
        MigrationEvent(6.0, "DR#3", 3),
        CompletionEvent(7.0, "IC#1", 1, 2.0, 5.0),
        ShardDownEvent(8.0, 0, "kill"),
        RequestReroutedEvent(8.5, "IC", 12, 0, 2),
        RequestShedEvent(9.0, "OF", 6, "degraded-capacity"),
        ShardRecoveredEvent(10.0, 0, 2000.0),
    ]

    def test_round_trip_every_kind(self):
        for event in self.EXAMPLES:
            clone = event_from_dict(json.loads(json.dumps(event.to_dict())))
            assert clone == event
            assert canonical_line(clone) == canonical_line(event)

    def test_examples_cover_the_schema(self):
        assert {event.kind for event in self.EXAMPLES} == set(EVENT_TYPES)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry event kind"):
            event_from_dict({"t": 0.0, "kind": "nope"})

    def test_event_kinds_and_repr(self):
        from repro.telemetry import event_kinds

        assert tuple(event_kinds()) == tuple(EVENT_TYPES)
        assert "LaunchEvent" in repr(LaunchEvent(1.0, 2, 0.0, False))

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing field"):
            event_from_dict({"t": 0.0, "kind": "arrival", "app": "IC"})


class TestTelemetryBus:
    def test_disabled_bus_has_no_sinks(self):
        bus = TelemetryBus()
        assert not bus.enabled
        assert not bus.wants_launch

    def test_kind_filter_routes_events(self):
        bus = TelemetryBus()
        sink = StreamingAggregationSink(kinds=("completion",))
        bus.attach(sink)
        assert bus.wants("completion") and not bus.wants("launch")
        assert not bus.wants_launch
        bus.emit(CompletionEvent(1.0, "IC#1", 1, 0.0, 1.0))
        assert sink.completions == 1 and sink.digest.count == 1

    def test_launch_fast_path_used_for_aggregation_only(self):
        bus = TelemetryBus()
        sink = StreamingAggregationSink()
        bus.attach(sink)
        assert bus.wants_launch
        bus.emit_launch(1.0, 1, 0.5, True)
        assert sink.launches == 1 and sink.launch_blocked == 1
        assert sink.launch_wait_ms == 0.5

    def test_launch_event_path_when_a_sink_needs_objects(self):
        bus = TelemetryBus()
        aggregate = StreamingAggregationSink()
        fingerprint = FingerprintSink()
        bus.attach(aggregate)
        bus.attach(fingerprint)
        bus.emit_launch(1.0, 1, 0.0, False)
        assert aggregate.launches == 1
        assert fingerprint.event_count == 1  # saw the materialized event

    def test_bus_introspection_and_close(self, tmp_path):
        bus = TelemetryBus()
        log = JsonlEventLogSink(tmp_path / "x.jsonl")
        bus.attach(log)
        assert bus.enabled and bus.sinks == [log]
        bus.emit(ArrivalEvent(0.0, "IC#1", 1, 5))
        bus.close()
        bus.close()  # idempotent
        assert log.events_written == 1
        assert sniff_event_log(tmp_path / "x.jsonl")

    def test_unknown_sink_kind_rejected(self):
        class Bad(TelemetrySink):
            kinds = ("bogus",)

            def handle(self, event):  # pragma: no cover
                pass

        with pytest.raises(ValueError, match="unknown event kind"):
            TelemetryBus().attach(Bad())


# ----------------------------------------------------------------------
# Emission from the scheduler/fleet hot paths
# ----------------------------------------------------------------------
def _run_with_full_stream(system="VersaSlot-BL", n_apps=8, seed=21):
    arrivals = WorkloadGenerator(seed).sequence(Condition.STRESS, n_apps=n_apps)
    bus = TelemetryBus()
    sink = StreamingAggregationSink()
    bus.attach(sink)
    outcome = simulate_run(system, arrivals, telemetry=bus)
    return outcome, sink


class TestSchedulerEmission:
    def test_aggregation_mirrors_scheduler_stats(self):
        outcome, sink = _run_with_full_stream()
        stats = outcome.stats
        assert sink.arrivals == stats.arrivals
        assert sink.completions == stats.completions
        assert sink.launches == stats.launches
        assert sink.launch_blocked == stats.launch_blocked
        assert sink.launch_wait_ms == stats.launch_wait_ms
        assert sink.preemptions == stats.preemptions > 0
        assert sink.pr_loads == stats.pr_count
        assert sink.makespan_ms == outcome.makespan_ms

    def test_digest_matches_exact_response_stream(self):
        outcome, sink = _run_with_full_stream()
        exact = outcome.stats.response_times_ms()
        assert sink.digest.to_dict() == digest_of(exact).to_dict()
        assert sink.digest.mean() == sum(exact) / len(exact)

    def test_no_bus_keeps_scheduler_telemetry_none(self):
        arrivals = WorkloadGenerator(1).sequence(Condition.LOOSE, n_apps=2)
        captured = {}

        def capture(engine, board, scheduler):
            captured["scheduler"] = scheduler

        simulate_run("Nimblock", arrivals, instruments=(capture,))
        assert captured["scheduler"].telemetry is None

    def test_digest_only_cells_retain_no_response_records(self):
        """The O(1)-memory path: no per-request record accumulates."""
        arrivals = WorkloadGenerator(1).sequence(Condition.LOOSE, n_apps=3)
        bus = TelemetryBus()
        sink = StreamingAggregationSink(kinds=("completion",))
        bus.attach(sink)

        def streaming(engine, board, scheduler):
            scheduler.stats.retain_responses = False

        outcome = simulate_run(
            "Nimblock", arrivals, instruments=(streaming,), telemetry=bus
        )
        assert outcome.stats.responses == []
        assert outcome.stats.completions == 3
        assert sink.digest.count == 3
        assert outcome.makespan_ms == sink.makespan_ms > 0


# ----------------------------------------------------------------------
# Event-log persistence and replay
# ----------------------------------------------------------------------
class TestEventLogReplay:
    def _cell(self, tmp_path, **overrides):
        fields = dict(
            scenario="tel",
            system="Nimblock",
            sequence_index=0,
            seed=1,
            workload=WorkloadSpec(Condition.STRESS, n_apps=4),
            events_path=str(tmp_path / "events.jsonl"),
        )
        fields.update(overrides)
        return CampaignCell(**fields)

    def test_replayed_aggregation_is_bit_identical_to_the_record(self, tmp_path):
        cell = self._cell(tmp_path)
        record = execute_cell(cell)
        meta, sink = replay_aggregation(cell.events_path)
        assert meta["system"] == "Nimblock" and meta["n_apps"] == 4
        assert sink.digest.to_dict() == record.response_digest
        assert sink.completions == record.counters["completions"]
        assert sink.arrivals == record.counters["arrivals"]
        assert sink.launches == record.counters["launches"]
        assert sink.launch_blocked == record.counters["launch_blocked"]
        assert sink.launch_wait_ms == record.counters["launch_wait_ms"]
        assert sink.preemptions == record.counters["preemptions"]
        assert sink.pr_loads == record.counters["pr_count"]
        assert sink.makespan_ms == record.makespan_ms

    def test_sniff_and_typed_load(self, tmp_path):
        cell = self._cell(tmp_path)
        execute_cell(cell)
        assert sniff_event_log(cell.events_path)
        events = load_events(cell.events_path)
        assert events and events[0].kind == "arrival"
        kinds = {event.kind for event in events}
        assert {"arrival", "launch", "slot", "completion"} <= kinds

    def test_truncated_trailing_event_skipped_with_warning(self, tmp_path):
        cell = self._cell(tmp_path)
        execute_cell(cell)
        path = tmp_path / "events.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:10])
        with pytest.warns(UserWarning, match="truncated trailing telemetry event"):
            events = load_events(path)
        assert len(events) == len(lines) - 2  # header + the cut line

    def test_malformed_interior_event_raises_with_location(self, tmp_path):
        cell = self._cell(tmp_path)
        execute_cell(cell)
        path = tmp_path / "events.jsonl"
        lines = path.read_text().splitlines()
        lines[2] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="events.jsonl:3"):
            load_events(path)

    def test_summarize_event_log_shape(self, tmp_path):
        cell = self._cell(tmp_path)
        record = execute_cell(cell)
        summary = summarize_event_log(cell.events_path)
        assert summary["counters"]["completions"] == 4
        assert summary["response"]["count"] == 4
        assert summary["response_digest"] == record.response_digest


class TestGoldenReplayParity:
    """Event-log replay reproduces the PR-2 golden fingerprints."""

    @pytest.fixture(scope="class")
    def golden(self):
        from pathlib import Path

        return json.loads(
            (Path(__file__).parent / "data" / "golden_kernel.json").read_text()
        )

    @pytest.mark.parametrize(
        "system", ["Baseline", "FCFS", "Nimblock", "VersaSlot-BL"]
    )
    def test_response_stream_from_log_matches_golden(
        self, golden, system, tmp_path
    ):
        arrivals = WorkloadGenerator(21).sequence(Condition.STRESS, n_apps=8)
        bus = TelemetryBus()
        log = JsonlEventLogSink(tmp_path / "run.jsonl", meta={"system": system})
        bus.attach(log)
        simulate_run(system, arrivals, telemetry=bus)
        bus.close()
        expected = golden["systems"][system]
        events = load_events(tmp_path / "run.jsonl")
        responses = [e.response_ms for e in events if e.kind == "completion"]
        assert responses == expected["samples_ms"]
        launches = sum(1 for e in events if e.kind == "launch")
        assert launches == expected["launches"]
        preemptions = sum(1 for e in events if e.kind == "preemption")
        assert preemptions == expected["preemptions"]
        finishes = [e.time_ms for e in events if e.kind == "completion"]
        assert max(finishes) == expected["makespan_ms"]
        if system != "Baseline":  # Baseline has no slots, hence no PR events
            pr_loads = sum(
                1 for e in events if e.kind == "slot" and e.state == "loaded"
            )
            assert pr_loads == expected["pr_count"]


# ----------------------------------------------------------------------
# Fingerprint sink / verify integration
# ----------------------------------------------------------------------
class TestFingerprintSink:
    def test_fingerprint_reproduces_bespoke_plumbing(self):
        from repro.verify.oracle import instrumented_run

        arrivals = WorkloadGenerator(5).sequence(Condition.STRESS, n_apps=4)
        fingerprint = instrumented_run("VersaSlot-BL", arrivals)
        reset_instance_ids()
        outcome = simulate_run("VersaSlot-BL", arrivals)
        assert fingerprint.response_times_ms == outcome.stats.response_times_ms()
        assert fingerprint.finish_times_ms == [
            r.finish_time for r in outcome.stats.responses
        ]
        assert fingerprint.completions == outcome.stats.completions
        assert fingerprint.telemetry_events > 0
        assert len(fingerprint.telemetry_sha256) == 64

    def test_telemetry_stream_is_deterministic_across_kernels(self):
        from repro.verify.oracle import DifferentialOracle

        arrivals = WorkloadGenerator(9).sequence(Condition.STANDARD, n_apps=3)
        report = DifferentialOracle().check("Nimblock", arrivals)
        assert report.ok, report.summary()
        assert (
            report.reference.telemetry_sha256
            == report.optimized.telemetry_sha256
        )


# ----------------------------------------------------------------------
# Fleet: admission events, shard logs, digest rollups
# ----------------------------------------------------------------------
class TestFleetTelemetry:
    def test_fleet_events_dir_writes_admission_and_shard_logs(self, tmp_path):
        from repro.fleet import Fleet, get_fleet_scenario

        scenario = get_fleet_scenario("fleet-smoke")
        result = Fleet(scenario).run(events_dir=tmp_path)
        seed = scenario.seeds[0]
        admission_log = tmp_path / f"{scenario.name}-admission-seed{seed}.jsonl"
        assert admission_log.exists()
        admissions = load_events(admission_log)
        assert len(admissions) == scenario.workload.n_apps
        assert {e.kind for e in admissions} == {"admission"}
        assert all(0 <= e.shard < scenario.n_shards for e in admissions)
        for record in result.records:
            shard_log = (
                tmp_path
                / f"{scenario.name}-seed{record.seed}-shard{record.shard}.jsonl"
            )
            _, sink = replay_aggregation(shard_log)
            assert sink.digest.to_dict() == record.response_digest
            assert sink.completions == record.counters["completions"]

    def test_rollup_merges_shard_digests(self):
        from repro.fleet import Fleet, get_fleet_scenario

        scenario = get_fleet_scenario("fleet-smoke")
        result = Fleet(scenario).run()
        merged = merge_digests(
            d for d in (r.digest() for r in result.records) if d is not None
        )
        overall = result.rollup.overall
        assert overall.mean_ms == pytest.approx(merged.mean(), rel=1e-12)
        assert overall.p95_ms == merged.percentile(95.0)
        assert overall.p99_ms == merged.percentile(99.0)


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
class TestTelemetryCli:
    def test_campaign_list_json(self, capsys):
        assert cli_main(["campaign", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(entry["name"] == "smoke" for entry in payload)
        assert all({"name", "systems", "n_apps"} <= set(e) for e in payload)

    def test_fleet_list_json(self, capsys):
        assert cli_main(["fleet", "list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(entry["name"] == "fleet-smoke" for entry in payload)
        assert all({"name", "policy", "n_shards"} <= set(e) for e in payload)

    def test_telemetry_schema_json(self, capsys):
        assert cli_main(["telemetry", "schema", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == set(EVENT_TYPES)
        assert payload["completion"] == [
            "app", "app_id", "arrival_ms", "response_ms",
        ]

    def test_telemetry_summarize_json_and_replay(self, tmp_path, capsys):
        record = execute_cell(CampaignCell(
            scenario="cli",
            system="FCFS",
            sequence_index=0,
            seed=1,
            workload=WorkloadSpec(Condition.LOOSE, n_apps=2),
            events_path=str(tmp_path / "cli.jsonl"),
        ))
        # `repro replay` sniffs event logs and re-derives the report
        assert cli_main(
            ["replay", str(tmp_path / "cli.jsonl"), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["completions"] == 2
        assert payload["response_digest"] == record.response_digest
        assert cli_main(["replay", str(tmp_path / "cli.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "Telemetry counters" in out and "completions" in out

    def test_telemetry_summarize_missing_file(self, capsys):
        assert cli_main(["replay", "/nope/missing.jsonl"]) == 2

    def test_replay_event_log_with_figure_is_an_error(self, tmp_path, capsys):
        execute_cell(CampaignCell(
            scenario="cli",
            system="FCFS",
            sequence_index=0,
            seed=1,
            workload=WorkloadSpec(Condition.LOOSE, n_apps=2),
            events_path=str(tmp_path / "f.jsonl"),
        ))
        assert cli_main(
            ["replay", str(tmp_path / "f.jsonl"), "--figure", "fig5"]
        ) == 2
        assert "telemetry event log" in capsys.readouterr().err

    def test_raw_sample_pool_stays_exact_with_an_empty_record(self):
        """One zero-completion shard must not demote a --raw-samples
        pool to bounded-error digests: the summary and fleet rollup folds
        pool exact samples until a digest-only record arrives."""
        from repro.campaign.results import RunRecord
        from repro.store import FleetRollupProjection, RecordSummaryProjection

        raw = RunRecord(
            scenario="s", system="FCFS", condition="c", sequence_index=0,
            seed=1, n_apps=2, makespan_ms=2.0, shard=0,
            response_times_ms=[1.0, 2.0],
            response_digest=digest_of([1.0, 2.0]).to_dict(),
        )
        empty = RunRecord(
            scenario="s", system="FCFS", condition="c", sequence_index=0,
            seed=1, n_apps=3, makespan_ms=0.0, shard=1,
        )
        digest_only = RunRecord(
            scenario="s", system="FCFS", condition="c", sequence_index=0,
            seed=1, n_apps=1, makespan_ms=3.0, shard=1,
            response_digest=digest_of([3.0]).to_dict(),
        )
        exact = ResponseStats()
        exact.extend([1.0, 2.0])
        merged = digest_of([1.0, 2.0])
        merged.merge(digest_of([3.0]))
        # the exact percentile is not what a digest would report
        assert exact.p95() != digest_of([1.0, 2.0]).p95()

        summary, rollup = RecordSummaryProjection(), FleetRollupProjection()
        for records, pooled in (((raw, empty), exact), ((digest_only,), merged)):
            for record in records:
                summary.fold_record(record)
                rollup.fold_record(record)
            (row,) = summary.rows()
            _, overall = rollup.render_rollups()
            expected = [pooled.mean(), pooled.p95(), pooled.p99()]
            assert row[3:6] == expected
            assert [overall.mean_ms, overall.p95_ms, overall.p99_ms] == expected

    def test_campaign_run_raw_samples_flag(self, tmp_path, capsys):
        out = tmp_path / "raw.jsonl"
        assert cli_main([
            "campaign", "run", "smoke", "--raw-samples", "--out", str(out)
        ]) == 0
        from repro.campaign import load_records

        records, _ = load_records(out)
        assert records and all(r.response_times_ms for r in records)
        assert all(r.response_digest for r in records)


# ----------------------------------------------------------------------
# Overhead gate (scripts/telemetry_gate.py)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def telemetry_gate():
    path = Path(__file__).resolve().parent.parent / "scripts" / "telemetry_gate.py"
    spec = importlib.util.spec_from_file_location("telemetry_gate", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTelemetryGate:
    def test_one_pair_completes_the_app_on_both_sides(self, telemetry_gate):
        detached = telemetry_gate.run_single_app(None)
        bus = telemetry_gate.production_bus()
        enabled = telemetry_gate.run_single_app(bus)
        assert detached.completions == enabled.completions == 1
        (sink,) = bus.sinks
        assert isinstance(sink, StreamingAggregationSink)
        assert sink.digest.count == 1

    @pytest.mark.parametrize("overhead, code", [(0.0, 0), (0.05, 0), (0.0501, 1)])
    def test_exit_code_follows_the_bound(self, telemetry_gate, monkeypatch,
                                         capsys, overhead, code):
        monkeypatch.setattr(telemetry_gate, "measure_overhead", lambda: overhead)
        assert telemetry_gate.main() == code
        captured = capsys.readouterr()
        assert ("within gate" in captured.out) == (code == 0)
        assert ("allowed: 5.0%" in captured.err) == (code == 1)
