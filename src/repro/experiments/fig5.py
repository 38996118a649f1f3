"""Figure 5: relative average response-time reduction vs the baseline.

Six systems x four congestion conditions; each cell is the mean over N
random 20-application sequences of (baseline mean response / system mean
response), so higher is better and the Baseline column is 1.0 by
construction.

The heavy lifting is a campaign per condition: ``run_fig5`` enumerates
(system × sequence) cells through :class:`repro.campaign.CampaignRunner`
(optionally over ``jobs`` worker processes, optionally persisted as
JSONL), and the figure itself is computed from the records — so
:meth:`Fig5Result.from_records` can replay a persisted campaign without
re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Union

from ..campaign import CampaignRunner, ResultsStore, RunRecord, Scenario
from ..config import SystemParameters
from ..metrics.report import format_table
from ..workloads.generator import Condition, WorkloadSpec
from .runner import SYSTEMS

#: The paper's Fig. 5 values (reduction vs baseline, higher is better).
PAPER_FIG5: Dict[str, Dict[str, float]] = {
    "FCFS": {"Loose": 0.81, "Standard": 1.57, "Stress": 1.47, "Real-Time": 1.45},
    "RR": {"Loose": 0.79, "Standard": 1.80, "Stress": 1.47, "Real-Time": 1.46},
    "Nimblock": {"Loose": 1.06, "Standard": 6.23, "Stress": 3.04, "Real-Time": 2.91},
    "VersaSlot-OL": {"Loose": 1.08, "Standard": 8.39, "Stress": 4.13, "Real-Time": 3.84},
    "VersaSlot-BL": {"Loose": 1.49, "Standard": 13.66, "Stress": 5.23, "Real-Time": 4.76},
}

#: Conditions in the figure's x-axis order.
CONDITIONS: Sequence[Condition] = (
    Condition.LOOSE,
    Condition.STANDARD,
    Condition.STRESS,
    Condition.REAL_TIME,
)


@dataclass
class Fig5Result:
    """Reductions per condition per system, plus the records behind them."""

    reductions: Dict[str, Dict[str, float]] = field(default_factory=dict)
    records: List[RunRecord] = field(default_factory=list)

    @classmethod
    def from_records(cls, records: Iterable[RunRecord]) -> "Fig5Result":
        """Rebuild the figure from persisted records (no simulation).

        The reductions are the figure fold
        (:class:`~repro.store.projections.FigureProjection`) over the
        records; ``records`` keeps them grouped by condition in
        first-appearance order.
        """
        # Lazy: a storeless figure run imports no store module up front.
        from ..store.projections import FigureProjection

        projection = FigureProjection()
        by_condition: Dict[str, List[RunRecord]] = {}
        for record in records:
            projection.fold_record(record)
            by_condition.setdefault(record.condition, []).append(record)
        return cls(
            reductions=projection.render_fig5(),
            records=[r for group in by_condition.values() for r in group],
        )

    def table(self) -> str:
        order = [c.label for c in CONDITIONS]
        labels = [label for label in order if label in self.reductions]
        labels += [label for label in self.reductions if label not in order]
        headers = ["system"] + labels + ["paper (Std)"]
        rows = []
        for system in SYSTEMS:
            if system == "Baseline" or not all(
                system in self.reductions[label] for label in labels
            ):
                continue
            row: List[object] = [system]
            for label in labels:
                row.append(self.reductions[label][system])
            row.append(PAPER_FIG5.get(system, {}).get("Standard", float("nan")))
            rows.append(row)
        return format_table(
            headers, rows,
            title="Fig. 5 — relative avg response-time reduction (higher is better)",
        )


def run_fig5(
    seed: int = 1,
    sequence_count: int = 10,
    n_apps: int = 20,
    params: Optional[SystemParameters] = None,
    systems: Optional[Sequence[str]] = None,
    conditions: Sequence[Condition] = CONDITIONS,
    jobs: int = 1,
    store: Optional[Union[ResultsStore, str]] = None,
) -> Fig5Result:
    """Regenerate Fig. 5 (and the raw data Fig. 6 reuses)."""
    chosen = list(systems) if systems else list(SYSTEMS)
    if "Baseline" not in chosen:
        chosen = ["Baseline"] + chosen
    runner = CampaignRunner(jobs=jobs, store=store, base_params=params)
    # Enumerate every condition's cells up front and fan them out in ONE
    # backend call: a single worker pool, no synchronization barrier at
    # condition boundaries.
    cells = []
    for condition in conditions:
        scenario = Scenario(
            name=f"fig5-{condition.label.lower()}",
            workload=WorkloadSpec(
                condition, n_apps=n_apps, sequence_count=sequence_count
            ),
            systems=tuple(chosen),
            seeds=(seed,),
        )
        cells.extend(runner.cells_for(scenario))
    return Fig5Result.from_records(runner.run_cells(cells))


def main() -> None:  # pragma: no cover - CLI entry
    result = run_fig5(sequence_count=3)
    print(result.table())


if __name__ == "__main__":  # pragma: no cover
    main()
