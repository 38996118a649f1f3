"""Task dependency pipelines and analytic makespan estimators.

Applications execute as item-level pipelines across slots: item ``b`` of
task ``k`` waits for item ``b`` of task ``k-1`` (the paper's linear chain).

The analytic estimators answer "how long would this application take with
``s`` slots?" — the quantity the ILP-based optimal slot allocation of
Nimblock/DML (and hence Algorithm 1's ``O_Ai``) optimizes.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .application import ApplicationSpec, TaskSpec, pipelined_exec_time


def wave_partition(task_count: int, slot_count: int) -> List[Tuple[int, int]]:
    """Split ``task_count`` pipeline stages into waves of ``slot_count``.

    With fewer slots than tasks, slots rotate: wave ``w`` loads tasks
    ``[w*s, min(N, (w+1)*s))``.  Returns the half-open index ranges.
    """
    if slot_count < 1:
        raise ValueError(f"slot count must be >= 1, got {slot_count}")
    waves = []
    start = 0
    while start < task_count:
        end = min(task_count, start + slot_count)
        waves.append((start, end))
        start = end
    return waves


def estimate_makespan_ms(
    app: ApplicationSpec,
    batch_size: int,
    slot_count: int,
    pr_time_ms: float,
) -> float:
    """Estimated completion time of ``app`` given ``slot_count`` Little slots.

    Model: slots rotate through the pipeline in waves.  Each wave pays its
    serialized PCAP loads plus an ideal item-level pipeline over the loaded
    stages.  The estimate is intentionally simple — it is used only to
    *rank* slot counts when computing the optimal allocation ``O_Ai``, not
    to predict wall-clock times (the simulator does that).
    """
    total = 0.0
    for start, end in wave_partition(app.task_count, slot_count):
        wave_tasks: Sequence[TaskSpec] = app.tasks[start:end]
        total += pr_time_ms * len(wave_tasks)
        total += pipelined_exec_time(wave_tasks, batch_size)
    return total


def estimate_big_makespan_ms(
    app: ApplicationSpec,
    batch_size: int,
    big_slot_count: int,
    big_pr_time_ms: float,
) -> float:
    """Estimated completion time using 3-in-1 bundles in Big slots.

    Bundles rotate through ``big_slot_count`` Big slots the same way tasks
    rotate through Little slots; each loaded bundle internally pipelines its
    three member tasks.
    """
    if not app.can_bundle:
        raise ValueError(f"application {app.name!r} has no bundles")
    total = 0.0
    bundle_count = len(app.bundles)
    for start, end in wave_partition(bundle_count, big_slot_count):
        wave = app.bundles[start:end]
        total += big_pr_time_ms * len(wave)
        stage_times = [
            max(app.bundle_exec_times(bundle)) for bundle in wave
        ]
        fill = sum(
            sum(app.bundle_exec_times(bundle)) for bundle in wave
        )
        bottleneck = max(stage_times)
        total += fill + (batch_size - 1) * bottleneck
    return total
