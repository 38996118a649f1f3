"""Application model: tasks, bundles, benchmarks, pipelines, partitioning."""

from .application import (
    BUNDLE_SIZE,
    ApplicationInstance,
    ApplicationSpec,
    BundleSpec,
    TaskSpec,
    pipelined_exec_time,
    reset_instance_ids,
    sequential_exec_time,
)
from .benchmarks import BENCHMARKS, FIG7_APPS, benchmark_names, build_application, get_benchmark
from .partition import (
    generate_synthetic_application,
    partition_workload,
    quantize_usage,
    synthesize_bundle,
)
from .pipeline import (
    estimate_big_makespan_ms,
    estimate_makespan_ms,
    wave_partition,
)

__all__ = [
    "BENCHMARKS",
    "BUNDLE_SIZE",
    "ApplicationInstance",
    "ApplicationSpec",
    "BundleSpec",
    "FIG7_APPS",
    "TaskSpec",
    "benchmark_names",
    "build_application",
    "estimate_big_makespan_ms",
    "estimate_makespan_ms",
    "generate_synthetic_application",
    "get_benchmark",
    "partition_workload",
    "pipelined_exec_time",
    "quantize_usage",
    "reset_instance_ids",
    "sequential_exec_time",
    "synthesize_bundle",
    "wave_partition",
]
