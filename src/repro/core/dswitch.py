"""The D_switch performance-degradation metric (Eq. 1 of the paper).

::

    D_switch = (N_blocked_tasks / N_PR) * (N_apps / N_batch),  0 < D < 1

* ``N_blocked_tasks / N_PR`` measures the *current* PR contention degree:
  how many of the window's PR-related operations blocked something.
* ``N_apps / N_batch`` estimates *future* conflicts from the candidate
  queue: many apps with small batches → frequent PR → high risk; the
  worst case (one slot, batch 1 each) drives the ratio to 1.

The metric is recalculated every ``n`` updates of the application
candidate queue (arrivals and completions), as in the paper's Fig. 8
(``n = 4``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..schedulers.base import OnBoardScheduler


@dataclass(frozen=True)
class DSwitchSample:
    """One recalculation of the metric."""

    time: float
    value: float
    completed_apps: int
    window_pr: int
    window_blocked: int
    candidate_apps: int
    candidate_batch: int


@dataclass
class DSwitchCalculator:
    """Windowed D_switch computation bound to one board scheduler.

    Register :meth:`on_candidate_update` as a candidate listener; every
    ``period`` updates it recomputes the metric from the scheduler's
    windowed blocked/PR counters and the candidate queue, and appends a
    :class:`DSwitchSample`.
    """

    period: int = 4
    #: Minimum PR operations in the window before the ratio is trusted; an
    #: underfilled window keeps accumulating instead of emitting a noisy
    #: sample (a 2-of-3-blocked burst right after start-up would otherwise
    #: cross T1 spuriously).
    min_window_pr: int = 6
    samples: List[DSwitchSample] = field(default_factory=list)
    _updates: int = 0

    def on_candidate_update(self, sched: OnBoardScheduler) -> Optional[DSwitchSample]:
        """Candidate-queue update hook; returns a sample every ``period``."""
        self._updates += 1
        if self._updates % self.period != 0:
            return None
        if sched.stats.window_pr < self.min_window_pr:
            return None
        return self.compute(sched)

    def compute(self, sched: OnBoardScheduler) -> DSwitchSample:
        """Recalculate the metric now and reset the window counters."""
        window_pr, window_blocked = sched.stats.reset_window()
        candidates = sched.active_apps()
        n_apps = len(candidates)
        n_batch = sum(app.batch for app in candidates)
        if window_pr <= 0 or n_batch <= 0:
            value = 0.0
        else:
            value = (window_blocked / window_pr) * (n_apps / n_batch)
        value = min(max(value, 0.0), 1.0)
        sample = DSwitchSample(
            time=sched.engine.now,
            value=value,
            completed_apps=sched.stats.completions,
            window_pr=window_pr,
            window_blocked=window_blocked,
            candidate_apps=n_apps,
            candidate_batch=n_batch,
        )
        self.samples.append(sample)
        return sample
