"""The paper's qualitative claims (Figs. 5-8 and the design ablations),
checked on reduced inputs: 2 random sequences per congestion condition
(the paper uses 10) and 40-app switching ramps (the paper uses 80).

Each test names the claim it checks.  The shapes must hold; magnitudes
are compared with the paper's only where the reproduction matches them
(Fig. 7's synthesis tables).  ``PAPER_FIG5`` to ``PAPER_FIG8`` in
``repro.experiments`` hold the paper's numbers.
"""

import random

import pytest

from repro.campaign import CampaignRunner, Scenario, group_by_system
from repro.core.bundling import idle_subslot_cycles
from repro.core.switching import SchmittTrigger
from repro.experiments.fig5 import CONDITIONS, run_fig5
from repro.experiments.fig6 import TAIL_CONDITIONS, run_fig6
from repro.experiments.fig7 import PAPER_FIG7, run_fig7, run_fig7_dynamic
from repro.experiments.fig8 import run_fig8
from repro.experiments.runner import record_to_run_result
from repro.workloads import Condition, WorkloadSpec

SEQUENCES = 2


@pytest.fixture(scope="module")
def fig5_result():
    return run_fig5(seed=1, sequence_count=SEQUENCES)


@pytest.fixture(scope="module")
def fig6_result(fig5_result):
    return run_fig6(fig5_result=fig5_result)


@pytest.fixture(scope="module")
def fig8_results():
    return {seed: run_fig8(seed=seed, n_apps=40) for seed in (1, 3)}


def _paired_runs(scenario, first, second):
    """Per-sequence (first, second) RunResult pairs of a campaign."""
    grouped = group_by_system(CampaignRunner().run(scenario))
    return [
        (record_to_run_result(a), record_to_run_result(b))
        for a, b in zip(grouped[first], grouped[second])
    ]


# ---------------------------------------------------------------- Fig. 5
@pytest.mark.parametrize("condition", CONDITIONS, ids=lambda c: c.label)
def test_claim_fig5_ordering(fig5_result, condition):
    """Big.Little >= Only.Little >= Nimblock > FCFS, each within 5%; at
    the Loose interval every system is near 1x, so FCFS is not ranked."""
    reductions = fig5_result.reductions[condition.label]
    assert reductions["VersaSlot-BL"] >= reductions["VersaSlot-OL"] * 0.95
    assert reductions["VersaSlot-OL"] >= reductions["Nimblock"] * 0.95
    if condition is not Condition.LOOSE:
        assert reductions["Nimblock"] > reductions["FCFS"] * 0.95


def test_claim_fig5_standard_is_the_peak(fig5_result):
    """Big.Little's largest gain over the Baseline is at Standard."""
    bl = {
        label: reductions["VersaSlot-BL"]
        for label, reductions in fig5_result.reductions.items()
    }
    assert bl["Standard"] == max(bl.values())
    assert bl["Standard"] > 1.5


# ---------------------------------------------------------------- Fig. 6
def test_claim_fig6_bl_tails_no_worse_than_nimblock(fig6_result):
    """Big.Little's P95 and P99 are within 5% of Nimblock's or better."""
    for key, column in fig6_result.relative_tails.items():
        assert column["VersaSlot-BL"] <= column["Nimblock"] * 1.05, key


def test_claim_fig6_bl_p95_beats_nimblock(fig6_result):
    for condition in TAIL_CONDITIONS:
        column = fig6_result.relative_tails[f"{condition.label}-95"]
        assert column["VersaSlot-BL"] < column["Nimblock"]


def test_claim_fig6_bl_p95_at_or_below_baseline(fig6_result):
    for condition in TAIL_CONDITIONS:
        column = fig6_result.relative_tails[f"{condition.label}-95"]
        assert column["VersaSlot-BL"] <= 1.05


# ---------------------------------------------------------------- Fig. 7
def test_claim_fig7_static_gains_match_paper():
    """The 3-in-1 LUT/FF gains are within 0.5 points of the paper's, and
    the IC detail panel (DCT/Quantize/BDQ -> bundle) matches exactly."""
    result = run_fig7()
    for app, (paper_lut, paper_ff) in PAPER_FIG7.items():
        lut, ff = result.gains[app]
        assert lut == pytest.approx(paper_lut, abs=0.5)
        assert ff == pytest.approx(paper_ff, abs=0.5)
    assert result.detail_tasks == [0.57, 0.38, 0.28]
    assert result.detail_mean == pytest.approx(0.41, abs=0.005)
    assert result.detail_bundle == pytest.approx(0.60)


@pytest.mark.parametrize("app_name", ["IC", "AN", "3DR", "OF"])
def test_claim_fig7_bundles_raise_live_utilization(app_name):
    """The static gain shows up in a live simulation: a Big slot holding a
    3-in-1 bundle is better utilized than Little slots."""
    little, big = run_fig7_dynamic(app_name=app_name, batch_size=12)
    assert big.lut > little.lut
    assert big.ff > little.ff


# ---------------------------------------------------------------- Fig. 8
def test_claim_fig8_switching_cluster_switches(fig8_results):
    result = fig8_results[1]
    assert result.switch_times_ms, "the trigger never fired"
    assert result.reductions["Switching"] > 1.0


def test_claim_fig8_trigger_fires_once_per_ramp(fig8_results):
    for result in fig8_results.values():
        assert 1 <= len(result.switch_times_ms) <= 3


def test_claim_fig8_switching_beats_only_little(fig8_results):
    for result in fig8_results.values():
        assert result.reductions["Switching"] > 1.5  # paper: 2.98


def test_claim_fig8_prewarmed_switch_is_fast(fig8_results):
    """At least one seed pre-warms in the buffer zone: ~1 ms switches."""
    overheads = [r.mean_switch_overhead_ms for r in fig8_results.values()]
    assert min(overheads) < 5.0


# ------------------------------------------------------------- Ablations
def test_claim_dual_core_decoupling_cuts_blocked_launches():
    """Nimblock -> VersaSlot-OL isolates the dual-core PR server: faster
    responses and fewer blocked launches on every sequence."""
    pairs = _paired_runs(
        Scenario(
            name="ablation-dual-core",
            workload=WorkloadSpec(Condition.STRESS, sequence_count=SEQUENCES),
            systems=("Nimblock", "VersaSlot-OL"),
        ),
        "Nimblock", "VersaSlot-OL",
    )
    for single, dual in pairs:
        assert single.responses.mean() / dual.responses.mean() > 1.0
        assert dual.stats.launch_blocked < single.stats.launch_blocked


def test_claim_big_little_layout_beats_only_little():
    """VersaSlot-OL -> -BL isolates the Big.Little layout: faster responses
    with fewer PR loads on every sequence."""
    pairs = _paired_runs(
        Scenario(
            name="ablation-big-little",
            workload=WorkloadSpec(Condition.STRESS, sequence_count=SEQUENCES),
            systems=("VersaSlot-OL", "VersaSlot-BL"),
            seeds=(2,),
        ),
        "VersaSlot-OL", "VersaSlot-BL",
    )
    for only_little, big_little in pairs:
        assert only_little.responses.mean() / big_little.responses.mean() > 1.0
        assert big_little.stats.pr_count < only_little.stats.pr_count


@pytest.mark.parametrize("batch", [5, 15, 30])
def test_claim_idle_subslot_cycles_grow_with_bundle_size(batch):
    """Bundles of 2, 3 and 4 tasks: idle sub-slot cycles grow with the
    size, the cost the paper's choice of 3 balances against granularity."""
    rng = random.Random(42)
    idle = {}
    for size in (2, 3, 4):
        total = 0.0
        for _ in range(200):
            times = [rng.uniform(5.0, 80.0) for _ in range(size)]
            total += idle_subslot_cycles(times, batch)
        idle[size] = total / 200
    assert idle[2] < idle[3] < idle[4]


def test_claim_buffer_zone_suppresses_oscillation():
    """On a noisy D_switch, the T1/T2 buffer zone switches less often than
    a degenerate trigger with T1 ~ T2."""
    rng = random.Random(7)
    noisy = [min(0.99, max(0.001, 0.06 + rng.gauss(0.0, 0.04))) for _ in range(400)]
    buffered = SchmittTrigger(threshold_up=0.1, threshold_down=0.0125)
    degenerate = SchmittTrigger(threshold_up=0.0626, threshold_down=0.0625)
    for i, value in enumerate(noisy):
        buffered.update(float(i), value)
        degenerate.update(float(i), value)
    assert buffered.switch_count < degenerate.switch_count
    assert degenerate.switch_count > 10
