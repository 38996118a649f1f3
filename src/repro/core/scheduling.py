"""Algorithm 2 helpers: ready-queue introspection and dispatch ordering.

The executable parts of Algorithm 2 live in the scheduler machinery:

* lines 1–3 (ready-list upkeep) — :meth:`AppRun.little_payloads` /
  :meth:`AppRun.big_payloads` are the one eligibility scan per slot kind
  (the planner stops each at its head, Nimblock counts the Little one);
* lines 4–7 (online 3-in-1 bundling) — bundles replace their member tasks
  in the ready list by construction, and the serial/parallel mode is
  chosen at dispatch via :func:`repro.core.bundling.serial_preferred`;
* lines 8–12 (batch-execution launch) — every loaded task or bundle walks
  its items in the one batch-item loop, :meth:`SlotRun._run`, which
  launches each item through the scheduler core's launch gate;
* lines 13–19 (PR dispatch within the allocation ``R_Ai``) —
  :meth:`OnBoardScheduler.plan_dispatch`, with asynchronous requests to
  the PR server in dual-core mode.

This module provides the pure views used by tests, the contention monitor
and debugging tools: the materialized ready queue ``Q_T`` and the dispatch
ordering (Big-bound applications first, then arrival order — Big slots
are the scarcer resource and idle Big slots cannot be back-filled by
Little tasks).
"""

from __future__ import annotations

from typing import List, Tuple, Union

from ..apps.application import BundleSpec, TaskSpec
from ..schedulers.base import OnBoardScheduler
from ..schedulers.runtime import AppRun


def ready_task_queue(scheduler: OnBoardScheduler) -> List[Tuple[AppRun, Union[TaskSpec, BundleSpec]]]:
    """Materialize Q_T: every (app, payload) awaiting a slot, in order.

    Big-bound applications contribute their unloaded bundles; Little-bound
    (and unbound) applications contribute their unloaded tasks.
    """
    queue: List[Tuple[AppRun, Union[TaskSpec, BundleSpec]]] = []
    for app in dispatch_order(scheduler):
        if app.in_big:
            queue.extend((app, bundle) for bundle in app.big_payloads())
        else:
            queue.extend((app, task) for task in app.little_payloads())
    return queue


def dispatch_order(scheduler: OnBoardScheduler) -> List[AppRun]:
    """Dispatch priority: Big-bound apps first, then arrival order."""
    live = scheduler.live_apps  # the live list itself: never mutated here
    if len(live) < 2:
        return live
    # ``live_apps`` is appended in submission order, so ids are monotone
    # on every on-board path (only live migration can re-insert an older
    # instance); a stable partition then equals the full sort at a
    # fraction of its cost — this runs on every scheduler pass.
    prev = -1
    for app in live:
        app_id = app.inst.app_id
        if app_id < prev:
            return sorted(live, key=lambda a: (not a.in_big, a.inst.app_id))
        prev = app_id
    big = [app for app in live if app.in_big]
    if not big or len(big) == len(live):
        return live
    big.extend(app for app in live if not app.in_big)
    return big


def pending_pr_payloads(scheduler: OnBoardScheduler) -> List[str]:
    """Payload names currently queued for (or undergoing) reconfiguration."""
    names: List[str] = [plan.payload.name for plan in scheduler.pr_queue.items()]
    for app in scheduler.apps:
        names.extend(sorted(app.pending_pr - set(names)))
    return names
