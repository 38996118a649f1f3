"""Figure 6: tail response time (P95/P99) normalized to the baseline.

Six systems over Standard / Stress / Real-time; each bar is the system's
percentile divided by the Baseline's percentile for the same sequences,
so lower is better and Baseline is 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Union

from ..campaign import ResultsStore
from ..config import SystemParameters
from ..metrics.report import format_table
from ..workloads.generator import Condition
from .fig5 import Fig5Result, run_fig5
from .runner import SYSTEMS

#: Conditions shown in Fig. 6 (Loose omitted, as in the paper).
TAIL_CONDITIONS: Sequence[Condition] = (
    Condition.STANDARD,
    Condition.STRESS,
    Condition.REAL_TIME,
)

#: Paper values read off Fig. 6 (relative tail, lower is better).
PAPER_FIG6: Dict[str, Dict[str, float]] = {
    "Nimblock": {
        "Standard-95": 0.55, "Standard-99": 1.25,
        "Stress-95": 0.75, "Stress-99": 1.30,
        "Real-Time-95": 0.72, "Real-Time-99": 1.25,
    },
    "VersaSlot-BL": {
        "Standard-95": 0.45, "Standard-99": 1.05,
        "Stress-95": 0.41, "Stress-99": 0.89,
        "Real-Time-95": 0.46, "Real-Time-99": 0.84,
    },
}


@dataclass
class Fig6Result:
    """Relative P95/P99 per condition per system."""

    relative_tails: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def table(self) -> str:
        keys = sorted(self.relative_tails)
        headers = ["system"] + keys
        rows = []
        systems = {s for col in self.relative_tails.values() for s in col}
        for system in SYSTEMS:
            if system not in systems or system == "Baseline":
                continue
            rows.append([system] + [self.relative_tails[k][system] for k in keys])
        return format_table(
            headers, rows,
            title="Fig. 6 — relative tail response time (lower is better)",
        )


def run_fig6(
    seed: int = 1,
    sequence_count: int = 10,
    n_apps: int = 20,
    params: Optional[SystemParameters] = None,
    systems: Optional[Sequence[str]] = None,
    fig5_result: Optional[Fig5Result] = None,
    jobs: int = 1,
    store: Optional[Union[ResultsStore, str]] = None,
) -> Fig6Result:
    """Regenerate Fig. 6; reuses Fig. 5's records when provided."""
    if fig5_result is None:
        fig5_result = run_fig5(
            seed=seed,
            sequence_count=sequence_count,
            n_apps=n_apps,
            params=params,
            systems=systems,
            conditions=TAIL_CONDITIONS,
            jobs=jobs,
            store=store,
        )
    return fig6_from_records(fig5_result.records)


def fig6_from_records(records) -> Fig6Result:
    """Fig. 6 from campaign records (no simulation): the figure fold
    (:class:`~repro.store.projections.FigureProjection`) over them.

    Raises ``ValueError`` when no record is of a tail condition.
    """
    # Lazy: a storeless figure run imports no store module up front.
    from ..store.projections import FigureProjection

    projection = FigureProjection()
    for record in records:
        projection.fold_record(record)
    return Fig6Result(relative_tails=projection.render_fig6())


def main() -> None:  # pragma: no cover - CLI entry
    print(run_fig6(sequence_count=3).table())


if __name__ == "__main__":  # pragma: no cover
    main()
