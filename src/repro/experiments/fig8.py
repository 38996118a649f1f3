"""Figure 8: cross-board switching — D_switch trace and response gains.

Left panel: the D_switch trajectory over a long workload on a two-board
cluster, with the Schmitt trigger switching Only.Little -> Big.Little at
``T1 = 0.1``.  Right panel: relative response-time reduction of the
Switching cluster and of an Only-Big.Little board, both normalized to an
Only.Little board serving the identical workload.  The paper also reports
an average switching overhead of ~1.13 ms.

The paper drives this with three 80-application workloads at standard
intervals on real hardware; on the simulator the same PR-contention level
is reached with a denser long-run interval, exposed as the
``interval_range`` parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import random

from ..apps.application import reset_instance_ids
from ..campaign import CampaignCell, CampaignRunner, ResultsStore
from ..cluster.cluster import FPGACluster
from ..cluster.monitor import ContentionMonitor
from ..config import DEFAULT_PARAMETERS, SystemParameters
from ..core.dswitch import DSwitchSample
from ..core.versaslot import make_versaslot
from ..fpga.slots import BoardConfig
from ..metrics.report import format_series, sparkline
from ..metrics.response import ResponseStats
from ..sim import DEFAULT_ENGINE
from ..workloads.generator import Arrival, Condition, drive
from .runner import RUN_HORIZON_MS, record_to_run_result

#: Paper right-panel values (reduction vs Only.Little, higher is better).
PAPER_FIG8: Dict[str, float] = {"Switching": 2.98, "Only Big.Little": 6.65}

#: Paper switching overhead (ms).
PAPER_SWITCH_OVERHEAD_MS = 1.13


def long_workload(
    seed: int,
    n_apps: int = 80,
    interval_range: Tuple[float, float] = (400.0, 900.0),
) -> List[Arrival]:
    """A long mixed workload whose congestion ramps up, peaks, then relaxes.

    Arrivals start at the relaxed end of ``interval_range``, tighten to
    the dense end through the middle third (PR contention builds and
    ``D_switch`` rises through the buffer zone — pre-warming the standby
    board — until it crosses T1), and relax again afterwards.  This is
    the rise-then-fall trajectory of the paper's Fig. 8 trace.
    """
    from ..apps.benchmarks import BENCHMARKS

    rng = random.Random(seed)
    names = list(BENCHMARKS)
    lo, hi = interval_range
    arrivals: List[Arrival] = []
    t = 0.0
    for index in range(n_apps):
        phase = index / max(1, n_apps - 1)
        if phase < 1.0 / 3.0:
            low, high = (lo + hi) / 2, hi  # relaxed opening
        elif phase < 2.0 / 3.0:
            low, high = lo, lo * 1.3  # dense middle: contention builds
        else:
            low, high = (lo + hi) / 2, hi  # relaxed tail
        arrivals.append(
            Arrival(
                app_name=rng.choice(names),
                batch_size=rng.randint(5, 30),
                time_ms=t,
            )
        )
        t += rng.uniform(low, high)
    return arrivals


@dataclass
class Fig8Result:
    """Trace, trigger events and the three-mode comparison."""

    samples: List[DSwitchSample] = field(default_factory=list)
    switch_times_ms: List[float] = field(default_factory=list)
    mean_switch_overhead_ms: float = 0.0
    reductions: Dict[str, float] = field(default_factory=dict)

    def trace(self) -> str:
        values = [sample.value for sample in self.samples]
        lines = [
            "Fig. 8 (left) — D_switch vs completed applications",
            f"  samples={len(values)}  max={max(values) if values else 0:.4f}  "
            f"switches at t={['%.0f' % t for t in self.switch_times_ms]}",
            "  " + sparkline(values),
        ]
        return "\n".join(lines)

    def comparison(self) -> str:
        return format_series(
            "Fig. 8 (right) — response reduction vs Only.Little",
            self.reductions,
            reference=PAPER_FIG8,
        )


def run_cluster(
    arrivals: Sequence[Arrival],
    params: Optional[SystemParameters] = None,
    switching_enabled: bool = True,
    initial: BoardConfig = BoardConfig.ONLY_LITTLE,
) -> Tuple[ResponseStats, FPGACluster, ContentionMonitor]:
    """Serve ``arrivals`` on a two-board cluster with the switch loop."""
    if params is None:
        params = DEFAULT_PARAMETERS
    reset_instance_ids()
    engine = DEFAULT_ENGINE()
    cluster = FPGACluster(
        engine,
        scheduler_factory=lambda board, p, tracer: make_versaslot(board, p, tracer),
        params=params,
        initial=initial,
    )
    monitor = ContentionMonitor(cluster, params, enabled=switching_enabled)
    engine.process(drive(engine, cluster, arrivals))
    engine.run(until=RUN_HORIZON_MS)
    if not cluster.is_drained:
        raise RuntimeError("cluster did not drain the workload")
    responses = ResponseStats()
    responses.extend(cluster.response_times_ms())
    return responses, cluster, monitor


def run_fig8(
    seed: int = 1,
    n_apps: int = 80,
    interval_range: Tuple[float, float] = (400.0, 900.0),
    params: Optional[SystemParameters] = None,
    jobs: int = 1,
    store: Optional[Union[ResultsStore, str]] = None,
) -> Fig8Result:
    """Regenerate Fig. 8: trace, switch overhead and mode comparison.

    The switching-cluster run stays in-process (the cluster layer is not a
    single-board campaign cell), but the two single-board reference runs
    go through the campaign backend and fan out when ``jobs > 1``.
    """
    arrivals = long_workload(seed, n_apps, interval_range)
    result = Fig8Result()

    switching, cluster, monitor = run_cluster(arrivals, params, switching_enabled=True)
    result.samples = list(monitor.samples)
    result.switch_times_ms = [record.start_ms for record in cluster.migration_stats.records]
    result.mean_switch_overhead_ms = cluster.migration_stats.mean_overhead_ms()

    runner = CampaignRunner(jobs=jobs, store=store)
    resolved = params if params is not None else DEFAULT_PARAMETERS
    cells = [
        CampaignCell(
            scenario="fig8-boards",
            system=system,
            sequence_index=0,
            seed=seed,
            params=resolved,
            arrivals=tuple(arrivals),
        )
        for system in ("VersaSlot-OL", "VersaSlot-BL")
    ]
    records = runner.run_cells(cells)
    only_little = record_to_run_result(records[0]).responses
    only_big = record_to_run_result(records[1]).responses

    base = only_little.mean()
    result.reductions = {
        "Only.Little": 1.0,
        "Switching": base / switching.mean(),
        "Only Big.Little": base / only_big.mean(),
    }
    return result


def main() -> None:  # pragma: no cover - CLI entry
    result = run_fig8()
    print(result.trace())
    print(result.comparison())
    print(f"mean switching overhead: {result.mean_switch_overhead_ms:.2f} ms "
          f"(paper: {PAPER_SWITCH_OVERHEAD_MS} ms)")


if __name__ == "__main__":  # pragma: no cover
    main()
