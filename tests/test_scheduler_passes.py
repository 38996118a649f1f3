"""Pinned work on fixed runs: scheduler passes and PR loads per system,
and the calendar entries the kernel schedules.

Every scheduler pass charges ``scheduler_action_ms`` of simulated time and
every PR load occupies the PCAP, so both are part of the model.  A faster
scheduler must make each pass cheaper, never run fewer of them; these pins
turn a change in either count into a named failure instead of a bare
digest mismatch.  Calendar entries measure the kernel's work: a change
that schedules more entries for the same simulation fails here by name.
The counts come from monkeypatches around the pass, the PR-completion hook
and ``run()``, so production code carries no counter for them.
"""

from collections import Counter

import pytest

from repro.campaign import backend
from repro.experiments import fig8, run_fig5, run_fig8
from repro.schedulers.base import OnBoardScheduler
from repro.sim import Engine, WheelEngine
from repro.workloads import Condition


@pytest.fixture
def work(monkeypatch):
    """Per-system (passes, PR loads) observed while the test runs."""
    passes: Counter = Counter()
    loads: Counter = Counter()
    run_pass = OnBoardScheduler._pass
    complete_pr = OnBoardScheduler._complete_pr

    def counted_pass(self):
        passes[self.name] += 1
        return run_pass(self)

    def counted_complete_pr(self, plan):
        loads[self.name] += 1
        complete_pr(self, plan)

    monkeypatch.setattr(OnBoardScheduler, "_pass", counted_pass)
    monkeypatch.setattr(OnBoardScheduler, "_complete_pr", counted_complete_pr)
    return lambda: {name: (passes[name], loads[name]) for name in passes}


@pytest.mark.parametrize("condition, expected", [
    (Condition.STANDARD, {
        "FCFS": (62, 45), "RR": (61, 46), "Nimblock": (57, 45),
        "VersaSlot-OL": (98, 45), "VersaSlot-BL": (38, 15),
    }),
    (Condition.REAL_TIME, {
        "FCFS": (71, 54), "RR": (85, 57), "Nimblock": (77, 60),
        "VersaSlot-OL": (128, 60), "VersaSlot-BL": (100, 46),
    }),
])
def test_fig5_sequence_passes_and_pr_loads(work, condition, expected):
    run_fig5(seed=1, sequence_count=1, n_apps=8, conditions=(condition,))
    assert work() == expected


def test_fig8_cluster_passes_and_pr_loads(work):
    # Both boards of the switching cluster plus the two single-board
    # reference runs, summed per system; the ramp triggers two switches,
    # so live migration's waiting-app extraction is on the path.
    result = run_fig8(seed=1, n_apps=16)
    assert len(result.switch_times_ms) == 2
    assert work() == {"VersaSlot-OL": (317, 145), "VersaSlot-BL": (242, 110)}


@pytest.fixture(params=[Engine, WheelEngine], ids=["heap", "wheel"])
def calendar_entries(request, monkeypatch):
    """Calendar entries scheduled while the test runs, on each kernel.

    A calendar entry is one increment of ``Engine._seq`` during a
    ``run()`` call; entries scheduled before the run starts are not
    counted.  The kernel is selected where the campaign backend and the
    Fig. 8 cluster read ``DEFAULT_ENGINE``.
    """
    entries = [0]
    for kernel in (Engine, WheelEngine):
        def counted_run(self, *args, _run=kernel.run, **kwargs):
            before = self._seq
            try:
                return _run(self, *args, **kwargs)
            finally:
                entries[0] += self._seq - before

        monkeypatch.setattr(kernel, "run", counted_run)
    monkeypatch.setattr(backend, "DEFAULT_ENGINE", request.param)
    monkeypatch.setattr(fig8, "DEFAULT_ENGINE", request.param)
    return lambda: entries[0]


@pytest.mark.parametrize("condition, expected", [
    (Condition.STANDARD, 10_676),
    (Condition.REAL_TIME, 14_974),
])
def test_fig5_sequence_calendar_entries(calendar_entries, condition, expected):
    run_fig5(seed=1, sequence_count=1, n_apps=8, conditions=(condition,))
    assert calendar_entries() == expected


def test_fig8_cluster_calendar_entries(calendar_entries):
    run_fig8(seed=1, n_apps=16)
    assert calendar_entries() == 13_144
