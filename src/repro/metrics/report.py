"""ASCII reporting helpers for experiment tables and figure series.

Every experiment prints its results through these helpers, so the figure
commands' output lines up visually with the paper's tables and figures.
:func:`summarize_records` renders persisted campaign records
(``results/*.jsonl``), so ``python -m repro replay`` re-reports a run
without re-simulating.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..campaign.results import RunRecord


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a simple fixed-width table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError(f"row {row!r} does not match {columns} headers")
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(columns)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(cells[0])))
    lines.append("  ".join("-" * widths[i] for i in range(columns)))
    for row in cells[1:]:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(columns)))
    return "\n".join(lines)


def format_series(
    name: str,
    pairs: Mapping[str, float],
    reference: Optional[Mapping[str, float]] = None,
) -> str:
    """Render one figure series, optionally next to the paper's values."""
    lines = [name]
    for key, value in pairs.items():
        line = f"  {key:<14s} {value:8.2f}"
        if reference and key in reference:
            line += f"   (paper: {reference[key]:.2f})"
        lines.append(line)
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """A coarse ASCII sparkline for metric traces (e.g. D_switch)."""
    if not values:
        return ""
    glyphs = " .:-=+*#%@"
    lo, hi = min(values), max(values)
    span = hi - lo or 1.0
    if len(values) > width:
        stride = len(values) / width
        values = [values[int(i * stride)] for i in range(width)]
    return "".join(glyphs[int((v - lo) / span * (len(glyphs) - 1))] for v in values)


def summarize_records(records: Iterable["RunRecord"]) -> str:
    """One table row per (condition, system) over persisted campaign records.

    Reports run counts, mean/P95/P99 response, mean makespan and PR
    counters — everything needed to sanity-check a campaign file without
    replaying the simulations.  Failure records (cells whose worker
    crashed or timed out — ``record.failed``) carry no samples; they are
    kept out of the aggregates and tallied in the table title instead.

    The aggregation is the store layer's
    :class:`~repro.store.projections.RecordSummaryProjection`: the same
    incremental fold that renders from a notification-log watermark runs
    here over an in-memory record list (exact pooled samples when records
    carry them, merged bounded-error digests otherwise), so the batch
    table and the projection cannot drift apart.
    """
    from ..store.projections import RecordSummaryProjection

    projection = RecordSummaryProjection()
    for record in records:
        projection.fold_record(record)
    return projection.render()


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)
