"""Algorithm 1: slot allocation for the Big.Little architecture.

The allocator runs on every scheduler pass and performs, in order:

1. **Availability check** (lines 1–3) — Big slots are *reserved* by the
   unfinished bundles of applications already bound to them, so admission
   stops once the reservation covers the physical slots.
2. **Rebinding** (lines 4–6) — applications granted Little slots that have
   not started executing are unbound and returned to the waiting list, so
   a newly freed Big slot can pick them up (load balancing toward Big).
3. **Primary allocation** (lines 7–13) — waiting applications get Big
   slots first (bundleable apps), then Little slots at their ILP-derived
   optimal count ``O_L``.
4. **Redistribution** (lines 14–18) — leftover Little slots are spread
   over already-bound applications, front of the runnable queue first, up
   to their remaining ready-task count.  This avoids slot idling.

Applications bound to Big slots complete entirely there (no mixed
allocations), which prevents Big-slot blocking through cross-kind task
dependencies — the constraint the paper states at the end of §III-C1.

The function is deliberately pure policy: it manipulates only the
``alloc_big``/``alloc_little``/``in_big`` fields and the three queues of a
scheduler-like object, so it is unit-testable with fakes.
"""

from __future__ import annotations

from typing import Callable

from .runtime_view import AppLike, SchedulerLike


def allocate_big_little(
    sched: SchedulerLike,
    optimal_big: Callable[[AppLike], int],
    optimal_little: Callable[[AppLike], int],
    rebinding: bool = True,
    redistribution: bool = True,
) -> None:
    """Run one Algorithm-1 allocation pass over ``sched``.

    ``rebinding`` and ``redistribution`` disable lines 4–6 and 14–18
    respectively, for ablating the two design choices they implement (load
    balancing toward Big slots, and leftover-slot spreading).
    """
    big_total = sched.big_total
    little_total = sched.little_total

    # Line 1: Big slots remaining after reservations by bound apps (one
    # reservation per bound app with work left — apps time-share the Big
    # slots beyond that, mirroring the paper's per-app decrement).
    reserved_big = 0
    for app in sched.s_big:
        if app.unfinished_bundle_count() > 0:
            reserved_big += 1
    b_avail = big_total - reserved_big
    l_idle = little_total - sched.committed_little()

    # Lines 2-3: nothing to hand out.
    if b_avail <= 0 and l_idle <= 0:
        return

    # Lines 4-6: unbind not-yet-started Little apps for rebinding.
    if rebinding and b_avail > 0:
        rebound = False
        for app in list(sched.s_little):
            if not app.started and app.spec.can_bundle:
                sched.s_little.remove(app)
                app.alloc_little = 0
                sched.c_wait.append(app)
                rebound = True
        if rebound:
            # Keep the waiting list in arrival order after rebinding.
            sched.c_wait.sort(key=lambda app: app.inst.app_id)

    # Line 7: Little slots not yet promised to bound apps.
    promised = 0
    for app in sched.s_little:
        allocated = app.alloc_little
        unfinished = app.unfinished_task_count()
        promised += allocated if allocated < unfinished else unfinished
    l_left = little_total - promised

    # Lines 8-13: primary allocation for the waiting list.
    for app in list(sched.c_wait):
        # Lines 8-10: binding, Big slots first for bundleable apps.
        if b_avail > 0 and app.spec.can_bundle:
            app.alloc_big = max(1, optimal_big(app))
            app.alloc_little = 0
            app.in_big = True
            sched.c_wait.remove(app)
            sched.s_big.append(app)
            b_avail -= 1
            continue
        # Lines 11-13: binding with Little slots at the optimal count.
        if l_idle > 0 and l_left > 0:
            grant = min(max(1, optimal_little(app)), l_left)
            app.alloc_little = grant
            app.in_big = False
            sched.c_wait.remove(app)
            sched.s_little.append(app)
            l_left -= grant
        elif b_avail <= 0:
            # Neither kind can be granted, and ``b_avail`` / ``l_left``
            # only fall: no later waiting app can be bound this pass.
            break

    # Lines 14-18: redistribute leftover Little slots.
    if redistribution and l_left > 0:
        for app in sched.s_little:
            if l_left <= 0:
                break
            delta = app.unfinished_task_count() - app.alloc_little
            if delta <= 0:
                continue
            grant = min(l_left, delta)
            app.alloc_little += grant
            l_left -= grant
