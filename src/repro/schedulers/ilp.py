"""Optimal slot-count computation (the ILP of Nimblock/DML).

Prior work derives, per application, the most efficient slot count for
pipeline execution via integer linear programming; Algorithm 1 consumes the
result as ``O_Ai = (O_B, O_L)``.  :func:`optimal_little_slots` and
:func:`optimal_big_slots` solve it by exact search over the (tiny) discrete
domain using the analytic makespan estimators.

Results are memoised: workloads re-use the same (application, batch)
pairs heavily.
"""

from __future__ import annotations

from functools import lru_cache

from ..apps.application import ApplicationSpec
from ..apps.pipeline import estimate_big_makespan_ms, estimate_makespan_ms

#: Accept a slot count whose makespan is within this factor of the best —
#: the "efficiency" tie-break that keeps O below the task count.
EFFICIENCY_TOLERANCE = 0.05


@lru_cache(maxsize=4096)
def _optimal_little(
    app_key: str,
    task_count: int,
    batch_size: int,
    pr_time_ms: float,
    max_slots: int,
) -> int:
    from ..apps.benchmarks import BENCHMARKS  # local import to keep cache key small

    app = BENCHMARKS.get(app_key)
    if app is None or app.task_count != task_count:
        raise KeyError(app_key)
    return _search_little(app, batch_size, pr_time_ms, max_slots)


def _search_little(app: ApplicationSpec, batch_size: int, pr_time_ms: float, max_slots: int) -> int:
    limit = max(1, min(app.task_count, max_slots))
    spans = [
        estimate_makespan_ms(app, batch_size, s, pr_time_ms) for s in range(1, limit + 1)
    ]
    best = min(spans)
    for s, span in enumerate(spans, start=1):
        if span <= best * (1.0 + EFFICIENCY_TOLERANCE):
            return s
    return limit  # pragma: no cover - loop always returns


def optimal_little_slots(
    app: ApplicationSpec,
    batch_size: int,
    pr_time_ms: float,
    max_slots: int,
) -> int:
    """O_L: smallest Little-slot count within 5 % of the best makespan."""
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    try:
        return _optimal_little(app.name, app.task_count, batch_size, pr_time_ms, max_slots)
    except KeyError:
        return _search_little(app, batch_size, pr_time_ms, max_slots)


@lru_cache(maxsize=4096)
def _optimal_big(
    app_key: str,
    bundle_count: int,
    batch_size: int,
    pr_time_ms: float,
    max_slots: int,
) -> int:
    from ..apps.benchmarks import BENCHMARKS  # local import to keep cache key small

    app = BENCHMARKS.get(app_key)
    if app is None or len(app.bundles) != bundle_count:
        raise KeyError(app_key)
    return _search_big(app, batch_size, pr_time_ms, max_slots)


def _search_big(app: ApplicationSpec, batch_size: int, pr_time_ms: float, max_slots: int) -> int:
    limit = max(1, min(len(app.bundles), max_slots))
    spans = [
        estimate_big_makespan_ms(app, batch_size, s, pr_time_ms)
        for s in range(1, limit + 1)
    ]
    best = min(spans)
    for s, span in enumerate(spans, start=1):
        if span <= best * (1.0 + EFFICIENCY_TOLERANCE):
            return s
    return limit  # pragma: no cover


def optimal_big_slots(
    app: ApplicationSpec,
    batch_size: int,
    big_pr_time_ms: float,
    max_slots: int,
) -> int:
    """O_B: smallest Big-slot count within 5 % of the best bundled makespan."""
    if not app.can_bundle:
        return 0
    try:
        return _optimal_big(
            app.name, len(app.bundles), batch_size, big_pr_time_ms, max_slots
        )
    except KeyError:
        return _search_big(app, batch_size, big_pr_time_ms, max_slots)
