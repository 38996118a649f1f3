"""Unit tests for the application model: specs, benchmarks, pipelines."""

import random

import pytest

from repro.apps import (
    BENCHMARKS,
    BUNDLE_SIZE,
    ApplicationInstance,
    ApplicationSpec,
    BundleSpec,
    TaskSpec,
    build_application,
    estimate_big_makespan_ms,
    estimate_makespan_ms,
    generate_synthetic_application,
    get_benchmark,
    partition_workload,
    pipelined_exec_time,
    quantize_usage,
    reset_instance_ids,
    sequential_exec_time,
    synthesize_bundle,
    wave_partition,
)
from repro.apps.benchmarks import FIG7_APPS
from repro.config import DEFAULT_PARAMETERS
from repro.fpga import ResourceVector


def make_task(index, exec_ms=5.0, lut=0.5, ff=0.4, name=None):
    return TaskSpec(name or f"t{index}", index, exec_ms, ResourceVector(lut, ff))


class TestTaskSpec:
    def test_non_positive_latency_rejected(self):
        with pytest.raises(ValueError):
            make_task(0, exec_ms=0.0)

    def test_oversized_usage_rejected(self):
        with pytest.raises(ValueError, match="re-partition"):
            make_task(0, lut=1.2)


class TestBundleSpec:
    def test_non_consecutive_rejected(self):
        with pytest.raises(ValueError, match="consecutive"):
            BundleSpec("b", 0, (0, 2, 3), ResourceVector(0.5, 0.5))

    def test_wrong_size_rejected(self):
        with pytest.raises(ValueError):
            BundleSpec("b", 0, (0, 1), ResourceVector(0.5, 0.5))  # type: ignore[arg-type]


class TestApplicationSpec:
    def test_task_index_order_enforced(self):
        tasks = (make_task(1), make_task(0))
        with pytest.raises(ValueError):
            ApplicationSpec("bad", tasks)

    def test_bundles_must_tile(self):
        tasks = tuple(make_task(i) for i in range(6))
        bundles = (BundleSpec("b0", 0, (0, 1, 2), ResourceVector(0.5, 0.5)),)
        with pytest.raises(ValueError, match="tile"):
            ApplicationSpec("bad", tasks, bundles)

    def test_bundle_for_task(self):
        app = BENCHMARKS["IC"]
        assert app.bundle_for_task(0) is app.bundles[0]
        assert app.bundle_for_task(5) is app.bundles[1]

    def test_bundle_exec_times(self):
        app = BENCHMARKS["IC"]
        times = app.bundle_exec_times(app.bundles[0])
        assert times == tuple(t.exec_time_ms for t in app.tasks[:3])

    def test_can_bundle(self):
        assert BENCHMARKS["IC"].can_bundle
        plain = ApplicationSpec("p", tuple(make_task(i) for i in range(2)))
        assert not plain.can_bundle


class TestApplicationInstance:
    def test_ids_unique_and_resettable(self):
        reset_instance_ids()
        spec = BENCHMARKS["3DR"]
        a = ApplicationInstance(spec, 5, 0.0)
        b = ApplicationInstance(spec, 5, 0.0)
        assert a.app_id != b.app_id
        reset_instance_ids()
        c = ApplicationInstance(spec, 5, 0.0)
        assert c.app_id == a.app_id

    def test_validation(self):
        spec = BENCHMARKS["3DR"]
        with pytest.raises(ValueError):
            ApplicationInstance(spec, 0, 0.0)
        with pytest.raises(ValueError):
            ApplicationInstance(spec, 5, -1.0)


class TestExecTimeModels:
    def test_sequential(self):
        tasks = [make_task(0, 10.0), make_task(1, 20.0)]
        assert sequential_exec_time(tasks, 3) == pytest.approx(90.0)

    def test_pipelined(self):
        tasks = [make_task(0, 10.0), make_task(1, 20.0)]
        assert pipelined_exec_time(tasks, 3) == pytest.approx(30.0 + 2 * 20.0)

    def test_pipelined_single_item_equals_fill(self):
        tasks = [make_task(0, 10.0), make_task(1, 20.0)]
        assert pipelined_exec_time(tasks, 1) == pytest.approx(30.0)

    def test_pipelined_empty(self):
        assert pipelined_exec_time([], 5) == 0.0


class TestBenchmarkTables:
    def test_all_five_present(self):
        assert set(BENCHMARKS) == {"3DR", "LeNet", "IC", "AN", "OF"}

    def test_task_counts_match_paper(self):
        counts = {name: spec.task_count for name, spec in BENCHMARKS.items()}
        assert counts == {"3DR": 3, "LeNet": 6, "IC": 6, "AN": 6, "OF": 9}

    def test_every_app_bundled(self):
        assert all(spec.can_bundle for spec in BENCHMARKS.values())

    @pytest.mark.parametrize("name,lut_pct,ff_pct", [
        ("IC", 42.2, 48.0),
        ("AN", 36.4, 41.4),
        ("3DR", 9.9, 17.7),
        ("OF", 9.6, 14.1),
    ])
    def test_fig7_gains_reproduced(self, name, lut_pct, ff_pct):
        app = BENCHMARKS[name]
        little = app.mean_little_utilization()
        big = app.mean_big_utilization()
        assert (big.lut / little.lut - 1) * 100 == pytest.approx(lut_pct, abs=0.3)
        assert (big.ff / little.ff - 1) * 100 == pytest.approx(ff_pct, abs=0.3)

    def test_ic_detail_panel(self):
        app = BENCHMARKS["IC"]
        first_three = [t.usage.lut for t in app.tasks[:3]]
        assert first_three == [0.57, 0.38, 0.28]
        assert app.bundles[0].usage_big.lut == pytest.approx(0.60)

    def test_fig7_apps_subset(self):
        assert set(FIG7_APPS) <= set(BENCHMARKS)

    def test_get_benchmark_unknown(self):
        with pytest.raises(KeyError, match="available"):
            get_benchmark("nope")

    def test_build_application_validates_lengths(self):
        with pytest.raises(ValueError):
            build_application("x", [1.0, 2.0], [0.5], [0.4, 0.4])


class TestMakespanEstimators:
    def test_wave_partition(self):
        assert wave_partition(6, 4) == [(0, 4), (4, 6)]
        assert wave_partition(3, 8) == [(0, 3)]

    def test_wave_partition_validates(self):
        with pytest.raises(ValueError):
            wave_partition(6, 0)

    def test_more_slots_never_worse(self):
        app = BENCHMARKS["OF"]
        pr = DEFAULT_PARAMETERS.little_pr_ms
        spans = [estimate_makespan_ms(app, 20, s, pr) for s in range(1, 10)]
        assert all(a >= b - 1e-9 for a, b in zip(spans, spans[1:]))

    def test_big_estimator_requires_bundles(self):
        plain = ApplicationSpec("p", tuple(make_task(i) for i in range(2)))
        with pytest.raises(ValueError):
            estimate_big_makespan_ms(plain, 10, 1, 100.0)

    def test_big_estimator_positive(self):
        span = estimate_big_makespan_ms(BENCHMARKS["IC"], 10, 2, 200.0)
        assert span > 0


class TestPartitioning:
    def test_quantize_snaps_up(self):
        assert quantize_usage(0.41) == 0.5
        assert quantize_usage(0.25) == 0.25
        assert quantize_usage(0.9) == 0.9

    def test_quantize_rejects_non_positive(self):
        with pytest.raises(ValueError):
            quantize_usage(0.0)

    def test_synthesize_bundle_consolidates(self):
        tasks = [make_task(i, lut=0.5, ff=0.4) for i in range(3)]
        bundle = synthesize_bundle("b", 0, tasks)
        assert bundle.usage_big.lut == pytest.approx(1.5 * 0.97 / 2.0)

    def test_synthesize_bundle_overflow_rejected(self):
        tasks = [make_task(i, lut=0.9, ff=0.9) for i in range(3)]
        with pytest.raises(ValueError, match="re-partition"):
            synthesize_bundle("b", 0, tasks)

    def test_generate_synthetic_valid(self):
        rng = random.Random(7)
        app = generate_synthetic_application("syn", 6, rng)
        assert app.task_count == 6
        assert app.can_bundle
        for bundle in app.bundles:
            assert bundle.usage_big.fits_within(ResourceVector(1.0, 1.0))

    def test_generate_synthetic_unbundled_when_untileable(self):
        rng = random.Random(7)
        app = generate_synthetic_application("syn", 5, rng)
        assert not app.can_bundle

    def test_generate_requests_bundling_impossible(self):
        rng = random.Random(7)
        with pytest.raises(ValueError):
            generate_synthetic_application("syn", 5, rng, bundled=True)

    def test_partition_workload_tiles_to_bundles(self):
        rng = random.Random(3)
        app = partition_workload("w", 40.0, rng)
        assert app.task_count % BUNDLE_SIZE == 0
        assert app.can_bundle

    def test_partition_rejects_non_positive(self):
        with pytest.raises(ValueError):
            partition_workload("w", 0.0, random.Random(1))
