"""Pinned scheduler work: passes and PR loads per system on fixed runs.

Every scheduler pass charges ``scheduler_action_ms`` of simulated time and
every PR load occupies the PCAP, so both are part of the model.  A faster
scheduler must make each pass cheaper, never run fewer of them; these pins
turn a change in either count into a named failure instead of a bare
digest mismatch.  The counts come from a monkeypatch around the pass and
the PR-completion hook, so production code carries no counter for them.
"""

from collections import Counter

import pytest

from repro.experiments import run_fig5, run_fig8
from repro.schedulers.base import OnBoardScheduler
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
