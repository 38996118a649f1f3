"""The fleet subsystem: routing, workloads, sharded execution, rollups.

The load-bearing property throughout is *cross-process determinism*: the
dispatch plan is a pure function of (stream, shards, policy, seed), so the
serial backend, the multiprocessing backend and any verify worker all see
bit-identical per-shard work.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import reset_instance_ids
from repro.campaign.backend import SerialBackend
from repro.campaign.results import load_records
from repro.chaos import FaultSchedule
from repro.cli import main
from repro.fleet import (
    ADMISSION_BATCH,
    FLEET_SCENARIOS,
    ROUTING_POLICIES,
    Fleet,
    FleetScenario,
    FleetWorkload,
    RoutingPolicy,
    get_fleet_scenario,
    get_policy,
    load_imbalance,
    policy_names,
    stable_digest,
    supervised_partition,
)
from repro.fleet.workload import FLEET_WORKLOAD_KINDS
from repro.sim import SeededStreams
from repro.verify import DifferentialOracle, FuzzCase, cases_from_fleet_scenario, shrink_case
from repro.workloads import Condition

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def _fresh_ids():
    reset_instance_ids()


def smoke_stream(n_apps=12, condition=Condition.STRESS, kind="uniform"):
    return FleetWorkload(kind=kind, condition=condition, n_apps=n_apps).arrivals(1)


def fault_free_plan(arrivals, n_shards, policy, seed):
    """The per-shard streams of a fleet with no faults."""
    return supervised_partition(
        arrivals, n_shards, policy, seed, FaultSchedule()
    ).streams


# ----------------------------------------------------------------------
# Routing policies
# ----------------------------------------------------------------------
class TestRouting:
    def test_stable_digest_is_pinned(self):
        """Freeze the digest: the ring layout and every persisted fleet
        artifact depend on it."""
        assert stable_digest("app/IC") == 4371189670463695966
        assert stable_digest("") != stable_digest("x")

    def test_consistent_hash_keys_by_app(self):
        arrivals = smoke_stream(24)
        shards = fault_free_plan(arrivals, 4, "hash", seed=1)
        app_to_shard = {}
        for shard, sub in enumerate(shards):
            for arrival in sub:
                assert app_to_shard.setdefault(arrival.app_name, shard) == shard

    def test_consistent_hash_remaps_a_fraction_on_scale_out(self):
        arrivals = smoke_stream(24)
        four = fault_free_plan(arrivals, 4, "hash", seed=1)
        five = fault_free_plan(arrivals, 5, "hash", seed=1)

        def shard_of(plan):
            return {
                arrival.app_name: shard
                for shard, sub in enumerate(plan)
                for arrival in sub
            }

        before, after = shard_of(four), shard_of(five)
        moved = sum(1 for app in before if after[app] != before[app])
        assert moved < len(before)  # most keys stay put

    def test_least_loaded_balances_estimated_work(self):
        arrivals = smoke_stream(32)
        balanced = load_imbalance(
            fault_free_plan(arrivals, 4, "least-loaded", seed=1)
        )
        hashed = load_imbalance(fault_free_plan(arrivals, 4, "hash", seed=1))
        assert balanced <= hashed
        assert balanced < 1.5

    def test_p2c_draws_from_seeded_streams(self):
        arrivals = smoke_stream(16)
        first = fault_free_plan(arrivals, 3, "p2c", seed=5)
        second = fault_free_plan(arrivals, 3, "p2c", seed=5)
        assert first == second
        assert fault_free_plan(arrivals, 3, "p2c", seed=6) != first

    def test_partition_is_exact_and_order_preserving(self):
        arrivals = smoke_stream(20)
        for policy in policy_names():
            shards = fault_free_plan(arrivals, 3, policy, seed=2)
            flat = [arrival for sub in shards for arrival in sub]
            assert sorted(flat, key=lambda a: a.time_ms) == arrivals
            for sub in shards:
                assert [a.time_ms for a in sub] == sorted(a.time_ms for a in sub)

    def test_unknown_policy_names_alternatives(self):
        with pytest.raises(KeyError, match="least-loaded"):
            get_policy("round-robin", 2, SeededStreams(1))

    def test_policy_routing_off_the_live_set_is_refused(self, monkeypatch):
        """A registered policy is outside code: a shard it picks that is
        not serving is refused with an error naming the policy."""

        class OffByOne(RoutingPolicy):
            name = "off-by-one"

            def route(self, arrival, loads, live):
                return self.n_shards

        monkeypatch.setitem(ROUTING_POLICIES, "off-by-one", OffByOne)
        with pytest.raises(ValueError, match="'off-by-one' routed to shard 2"):
            fault_free_plan(smoke_stream(4), 2, "off-by-one", seed=1)

    def test_admission_batching_freezes_snapshots(self):
        """Within one admission batch, least-loaded routes against the
        batch-start snapshot (stale loads), not per-arrival accounting."""
        arrivals = smoke_stream(ADMISSION_BATCH)
        shards = fault_free_plan(arrivals, 2, "least-loaded", seed=1)
        # Snapshot all-zero for the whole first batch: ties go to shard 0.
        assert len(shards[0]) == ADMISSION_BATCH
        assert shards[1] == []

    def test_partition_stable_across_hash_randomization(self):
        """The front-end reproduces the identical dispatch plan in fresh
        interpreters regardless of PYTHONHASHSEED (the spawn regression)."""
        script = (
            "from repro.chaos import FaultSchedule\n"
            "from repro.fleet import supervised_partition\n"
            "from repro.fleet.workload import FleetWorkload\n"
            "from repro.workloads import Condition\n"
            "s = FleetWorkload(kind='hot-skew', condition=Condition.STRESS,"
            " n_apps=16).arrivals(3)\n"
            "for policy in ('hash', 'least-loaded', 'p2c'):\n"
            "    plan = supervised_partition("
            "s, 3, policy, 3, FaultSchedule()).streams\n"
            "    print(policy, [[a.app_name for a in sub] for sub in plan])\n"
        )
        outputs = set()
        for hashseed in ("0", "77", "random"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=SRC)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


# ----------------------------------------------------------------------
# Fleet workload families
# ----------------------------------------------------------------------
#: sha256 of ``repr(arrivals(seed, index))`` over every size, seed and
#: index below, per (kind, condition).  Any change to the phased draw
#: order or to a sampling primitive changes every persisted fleet stream.
#: Multi-tenant tenants bring their own regimes, so its four digests agree.
STREAM_SIZES = (1, 7, 48, 200)
STREAM_SEEDS = (0, 1, 7, 2024)
STREAM_INDICES = (0, 3)
STREAM_DIGESTS = {
    ("uniform", "LOOSE"): "2bdeed92b5af937ceded79f3fe7716d660a0a9bd9b58d8cbbf45e4194a594954",
    ("uniform", "STANDARD"): "e6e001bfecfcb14f8f709f36e93cd10449c6d6d21272639380f7fbe8264b6ee6",
    ("uniform", "STRESS"): "4be4d818560f45add35fb5ee33e25d556b23539b6ffe184d3508df2691b156b6",
    ("uniform", "REAL_TIME"): "893a79e3a34b41855f71d5749ab827bcd538fac9d5e88e3c31c4e0810a2dc100",
    ("diurnal", "LOOSE"): "2ab9a419f4527eb439ee7a421415b62b8e2df31aa27f43e6fe4a13ec4ece8eae",
    ("diurnal", "STANDARD"): "5538e8e8379e89da46855e1c47aaeab81efd8cc9e6dec89ed34cc93ef3a4aedb",
    ("diurnal", "STRESS"): "b74742726e8639adcda01364b7d0c71ed1ee30cef55697cee044823747162126",
    ("diurnal", "REAL_TIME"): "21168ceb58b2c9e0d4cb98728f1dc3c4482221697d6050b8f14680e36b062a55",
    ("bursty", "LOOSE"): "dd782960d286c2676d8e344c0f7767433f433b599ee74ae89094edaccd32a5fc",
    ("bursty", "STANDARD"): "bfa1c7865ce342bfc68953b1fb256bcb1a4f3e3efcf1833b17cc5fff2acdd5a2",
    ("bursty", "STRESS"): "d04e476bcf89f2e8045c2c641590e09bbea8da590684c9998abe275da4177d80",
    ("bursty", "REAL_TIME"): "dfa7aa6c4368ecea5e3ec68c6967c8946e9200bf20494c2499c8ecb2c33b9177",
    ("hot-skew", "LOOSE"): "c2f1734ee9862ffdbf668127751fdc4e96a7d03c5a1ab4eb7ea04d977ec709be",
    ("hot-skew", "STANDARD"): "bcd84f8f5d2ed8cc7f1c75c21da5fa922e07e065b411e0c5da4cca911dac724c",
    ("hot-skew", "STRESS"): "0a6bb53f0ea1a9dec18a8e1d8e2ee3ca5bba3052ceae11b7f09d2c3efa8abf7d",
    ("hot-skew", "REAL_TIME"): "d9b6710303073de996dccf74f2975fa47575f0283a936b0ab6c4531ae121b4ab",
    ("multi-tenant", "LOOSE"): "6d0e8469c29eb01e02bf206d1e72f9690972e7140e945579d65863443d82edb3",
    ("multi-tenant", "STANDARD"): "6d0e8469c29eb01e02bf206d1e72f9690972e7140e945579d65863443d82edb3",
    ("multi-tenant", "STRESS"): "6d0e8469c29eb01e02bf206d1e72f9690972e7140e945579d65863443d82edb3",
    ("multi-tenant", "REAL_TIME"): "6d0e8469c29eb01e02bf206d1e72f9690972e7140e945579d65863443d82edb3",
}


class TestFleetWorkloads:
    @pytest.mark.parametrize("condition", [c.name for c in Condition])
    @pytest.mark.parametrize("kind", FLEET_WORKLOAD_KINDS)
    def test_streams_match_pinned_digests(self, kind, condition):
        digest = hashlib.sha256()
        for n_apps in STREAM_SIZES:
            workload = FleetWorkload(
                kind=kind, condition=Condition[condition], n_apps=n_apps
            )
            for seed in STREAM_SEEDS:
                for index in STREAM_INDICES:
                    digest.update(repr(workload.arrivals(seed, index)).encode())
        assert digest.hexdigest() == STREAM_DIGESTS[kind, condition]

    @pytest.mark.parametrize("kind", FLEET_WORKLOAD_KINDS)
    def test_streams_are_well_formed_and_deterministic(self, kind):
        workload = FleetWorkload(kind=kind, condition=Condition.STANDARD, n_apps=20)
        stream = workload.arrivals(7)
        assert stream == workload.arrivals(7)
        assert stream != workload.arrivals(8)
        assert len(stream) == 20
        times = [arrival.time_ms for arrival in stream]
        assert times == sorted(times)
        assert times[0] == 0.0
        lo, hi = workload.batch_range
        assert all(lo <= arrival.batch_size <= hi for arrival in stream)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet workload kind"):
            FleetWorkload(kind="tsunami")

    def test_hot_skew_concentrates_popularity(self):
        stream = FleetWorkload(
            kind="hot-skew", condition=Condition.STRESS, n_apps=60
        ).arrivals(1)
        counts = {}
        for arrival in stream:
            counts[arrival.app_name] = counts.get(arrival.app_name, 0) + 1
        top = max(counts.values())
        assert top > 60 / len(counts) * 1.5  # visibly above uniform share

    def test_diurnal_rate_varies(self):
        stream = FleetWorkload(
            kind="diurnal", condition=Condition.STANDARD, n_apps=40
        ).arrivals(1)
        gaps = [b.time_ms - a.time_ms for a, b in zip(stream, stream[1:])]
        assert max(gaps) > 2 * min(gap for gap in gaps if gap > 0)

    def test_multi_tenant_mixes_regimes(self):
        stream = FleetWorkload(
            kind="multi-tenant", condition=Condition.STANDARD, n_apps=30
        ).arrivals(1)
        assert len(stream) == 30
        gaps = [b.time_ms - a.time_ms for a, b in zip(stream, stream[1:])]
        # Stress-tenant gaps (~175 ms) and loose-tenant gaps (5000 ms)
        # both appear in the merged stream.
        assert min(gaps) < 1000 < max(gaps)


# ----------------------------------------------------------------------
# Fault-free dispatch plans
# ----------------------------------------------------------------------
#: (sha256 of ``repr(plans)``, sha256 of the admission event logs in seed
#: order) from ``plan_bundle`` and ``write_admission_logs`` over seeds 0, 1
#: and 7, per registered fault-free fleet scenario and routing policy.  A
#: change to admission (routing draws, batch snapshots, event emission)
#: moves them.
PLAN_SEEDS = (0, 1, 7)
PLAN_DIGESTS = {
    ("fleet-smoke", "hash"): (
        "2b991d602223c4ef97f60f52803fe135158d1d4268f3168e395df39eea32d2f1",
        "fb042f9ca86f523df9a49ac5977bf0cac517eb3fbcc8cb7ba37d13649dba85ca",
    ),
    ("fleet-smoke", "least-loaded"): (
        "6b10e7c61d382cc9166f7f6119edf5e45189cfa1334c61cb76e77736eae898f5",
        "be7d2bc1e7ecb1a1a683f860fc03d9b1d1e23e6dcc0cc5aaf50e82d1928621e7",
    ),
    ("fleet-smoke", "p2c"): (
        "ce2f853a2f6e7eb661c316cce2d24cc4528845efc0ad0010b20194bbf4450996",
        "09859d6cb5d2bd1951e24f3ab5bcd6836b3805a83bc059593ddbb2e1ef5a10dd",
    ),
    ("fleet-diurnal", "hash"): (
        "0baccb74b3c0149276a00b560799f708303849e0363f23c498ebf400b004cadd",
        "e7c8abfb68280928e2411c0fbd11883d8d6a05309cbdee193cd6fff875e138d0",
    ),
    ("fleet-diurnal", "least-loaded"): (
        "5d2fea4442091d2a89e1c7dba30e408ba57ca8b88d7b7d8d891116c29bc60f4c",
        "5305bd548959db7d254144a07c3910a1d9db771be2e0f53e2cf71198c52ccbeb",
    ),
    ("fleet-diurnal", "p2c"): (
        "52da6716b758ba6c25d4f6c935ac9125a312929f4fad0425a99eced5efeaa52e",
        "d471c7bd0e361f4718c9d04908f890e0ea323cbba5370484df9c9a70533fb180",
    ),
    ("fleet-bursty", "hash"): (
        "f5e249c7e16b9bae04121e1b5853ea058e1c5aa59e78bcf19338252479b7f19d",
        "23e2f393bf283797a0b032ffc7c66b21dfd766bd31ddf531e31aff312f313a06",
    ),
    ("fleet-bursty", "least-loaded"): (
        "c057edfa1ba16c23ce4c89ab098280151ec7bd89596926565f4e3f50acbaf31a",
        "2e74ae05aa3d54f4ff9c76d73eadcce139ae9efb32d2c1eba22837a37dde2d25",
    ),
    ("fleet-bursty", "p2c"): (
        "b9c5283f602ec9738a0f4d77d324c35b704777b8a1c655f4c3af983e88adf9a4",
        "2ccf5ae68e63a31e5927c88256bd73786bec05d364c2d72bd5254ddd6fb97f27",
    ),
    ("fleet-hot-shard", "hash"): (
        "0367383d750939b8d95152fb4cbee4b3caf26d050c89570ad2fe1f43a0822c07",
        "ebe74e882e05ae40f093d2020f56ccfa9c04406ef545c708da8288359a4c90b0",
    ),
    ("fleet-hot-shard", "least-loaded"): (
        "3831a260458a7a7104853dcc5bc37429f77f28892c2c18a0739fc22540032fec",
        "27dc689c5ccd94ac43319835b859a70fa89b0457c27ecc71b488e254943dbd60",
    ),
    ("fleet-hot-shard", "p2c"): (
        "a577c3f44044e0b8645f9ff14b5d69073270f02bd42e55e810424471e36c8820",
        "b9b852dce1f5f39c9e5d6072f2321109aea3c2c405ce6ec2a87b49ccd7f9fd3f",
    ),
    ("fleet-multi-tenant", "hash"): (
        "8c4e79b5a7e4d59210862b93d83c58d02ea2979d68fc3c589b7c8be4d1751442",
        "1fcbf3ceadbb6680049eb7c445ad32dbc07be8a1abb8fcb9d43e12d02ce3c577",
    ),
    ("fleet-multi-tenant", "least-loaded"): (
        "eade5aec70949e2347da95890520b750c36a1df0bc915b006b467aa2e767f061",
        "0f7575fc360efab0fc2b3ed91f04e2b13ff0b026267514dd9afe0c8fad6540ad",
    ),
    ("fleet-multi-tenant", "p2c"): (
        "3a44c4fa2a6f60eba60d8264478a675bb7e81d547cd111eb997a3435b96fa210",
        "fcb37650715f000503ab09d3010a56cef5f14d57e86c6e50430a22a50fdb0523",
    ),
}


class TestDispatchPlans:
    def test_every_fault_free_scenario_is_pinned(self):
        fault_free = {
            name for name, scenario in FLEET_SCENARIOS.items()
            if not scenario.faults
        }
        assert {name for name, _ in PLAN_DIGESTS} == fault_free

    @pytest.mark.parametrize("name, policy", sorted(PLAN_DIGESTS))
    def test_plans_and_admission_logs_match_pinned_digests(
        self, tmp_path, name, policy
    ):
        scenario = dataclasses.replace(
            get_fleet_scenario(name), policy=policy, seeds=PLAN_SEEDS
        )
        fleet = Fleet(scenario)
        plans, serving_plans = fleet.plan_bundle()
        fleet.write_admission_logs(serving_plans, tmp_path)
        logs = hashlib.sha256()
        for seed in PLAN_SEEDS:
            logs.update(
                (tmp_path / f"{name}-admission-seed{seed}.jsonl").read_bytes()
            )
        assert (
            hashlib.sha256(repr(plans).encode()).hexdigest(),
            logs.hexdigest(),
        ) == PLAN_DIGESTS[name, policy]


# ----------------------------------------------------------------------
# Scenarios and the Fleet orchestrator
# ----------------------------------------------------------------------
class TestFleetScenarios:
    def test_builtins_are_registered(self):
        assert {"fleet-smoke", "fleet-diurnal", "fleet-bursty",
                "fleet-hot-shard", "fleet-multi-tenant"} <= set(FLEET_SCENARIOS)

    def test_validation(self):
        workload = FleetWorkload()
        with pytest.raises(KeyError, match="unknown system"):
            FleetScenario("x", "NoSuch", 2, "hash", workload)
        with pytest.raises(KeyError, match="unknown routing policy"):
            FleetScenario("x", "FCFS", 2, "warp", workload)
        with pytest.raises(ValueError, match=">= 1 shard"):
            FleetScenario("x", "FCFS", 0, "hash", workload)

    def test_scaled_overrides_shape(self):
        scenario = get_fleet_scenario("fleet-smoke").scaled(
            n_shards=3, n_apps=6, seeds=(9,)
        )
        assert scenario.n_shards == 3
        assert scenario.workload.n_apps == 6
        assert scenario.seeds == (9,)
        assert scenario.cell_count() == 3


class TestFleetExecution:
    def test_serial_and_parallel_records_are_bit_identical(self):
        """The acceptance criterion: a >= 4-shard fleet produces identical
        per-shard and global aggregates on both backends."""
        scenario = get_fleet_scenario("fleet-hot-shard")
        assert scenario.n_shards >= 4
        fleet = Fleet(scenario)
        serial = fleet.run(jobs=1)
        parallel = fleet.run(jobs=2)
        assert [r.to_dict() for r in serial.records] == [
            r.to_dict() for r in parallel.records
        ]
        assert serial.rollup.table() == parallel.rollup.table()

    def test_records_are_tagged_per_shard(self, tmp_path):
        store = tmp_path / "fleet.jsonl"
        result = Fleet(get_fleet_scenario("fleet-smoke")).run(store=store)
        assert [r.shard for r in result.records] == [0, 1]
        loaded, _ = load_records(store)
        assert [r.to_dict() for r in loaded] == [r.to_dict() for r in result.records]
        assert all(r.condition == "Stress" for r in loaded)

    def test_shards_union_to_the_global_stream(self):
        scenario = get_fleet_scenario("fleet-smoke")
        fleet = Fleet(scenario)
        plan = fleet.shard_plan(scenario.seeds[0])
        flat = sorted(
            (a for sub in plan for a in sub), key=lambda a: a.time_ms
        )
        assert flat == scenario.workload.arrivals(scenario.seeds[0])

    def test_rollup_is_conserving(self):
        scenario = get_fleet_scenario("fleet-smoke")
        result = Fleet(scenario).run()
        rollup = result.rollup
        assert rollup.overall.n_apps == scenario.workload.n_apps * len(scenario.seeds)
        assert rollup.overall.n_apps == sum(r.n_apps for r in rollup.per_shard)
        assert rollup.overall.pr_count == sum(r.pr_count for r in rollup.per_shard)
        assert rollup.imbalance >= 1.0
        assert "fleet-smoke" in rollup.table()

    def test_both_kernels_produce_identical_shard_records(self):
        fleet = Fleet(get_fleet_scenario("fleet-smoke"))
        optimized = SerialBackend().run(fleet.cells(kernel="optimized"))
        reference = SerialBackend().run(fleet.cells(kernel="reference"))
        assert [r.to_dict() for r in optimized] == [r.to_dict() for r in reference]

    def test_empty_shard_records_are_benign(self):
        """A shard the router starved records 0 apps and makespan 0."""
        scenario = get_fleet_scenario("fleet-diurnal")
        result = Fleet(scenario).run()
        empty = [r for r in result.records if r.n_apps == 0]
        for record in empty:
            assert record.makespan_ms == 0.0
            assert record.response_times_ms == []
            assert record.utilization["elapsed_ms"] == 0.0


# ----------------------------------------------------------------------
# Verify-layer integration
# ----------------------------------------------------------------------
class TestFleetVerify:
    def test_oracle_passes_on_every_shard_of_a_fleet_scenario(self):
        oracle = DifferentialOracle()
        cases = cases_from_fleet_scenario(get_fleet_scenario("fleet-smoke"))
        assert len(cases) == 2
        for case in cases:
            report = oracle.check(case.system, case.arrivals(), case.params())
            assert report.ok, report.summary()

    def test_fleet_cases_match_fleet_cells(self):
        """verify --scenario fleet-X checks exactly what fleet run X runs."""
        scenario = get_fleet_scenario("fleet-smoke")
        cases = cases_from_fleet_scenario(scenario)
        cells = Fleet(scenario).cells()
        assert len(cases) == len(cells)
        for case, cell in zip(cases, cells):
            assert case.arrivals() == list(cell.arrivals)
            assert case.shard == cell.shard

    def test_fleet_case_round_trips_through_json(self):
        case = FuzzCase(
            case_id=0, system="FCFS", condition="STRESS", n_apps=8,
            batch_lo=2, batch_hi=6, seed=3, n_shards=3, policy="p2c",
            shard=2, fleet_kind="bursty",
        )
        payload = json.loads(json.dumps(case.to_dict()))
        assert FuzzCase.from_dict(payload) == case

    def test_shard_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            FuzzCase(
                case_id=0, system="FCFS", condition="STRESS", n_apps=4,
                batch_lo=1, batch_hi=2, seed=1, n_shards=2, shard=2,
            )

    def test_shrinking_drops_the_fleet_wrapping_first(self):
        case = FuzzCase(
            case_id=0, system="FCFS", condition="STRESS", n_apps=6,
            batch_lo=1, batch_hi=4, seed=1, n_shards=4, policy="p2c",
            shard=3, fleet_kind="bursty",
        )
        shrunk, _ = shrink_case(case, lambda c: True, budget=32)
        assert not shrunk.is_fleet
        assert shrunk.n_apps == 1

    def test_shrinking_can_keep_fleet_but_simplify_it(self):
        case = FuzzCase(
            case_id=0, system="FCFS", condition="LOOSE", n_apps=1,
            batch_lo=2, batch_hi=2, seed=1, n_shards=4, policy="p2c",
            shard=3, fleet_kind="bursty",
        )
        shrunk, _ = shrink_case(
            case, lambda c: c.is_fleet, budget=32
        )
        assert shrunk.is_fleet
        assert shrunk.n_shards == 2
        assert shrunk.shard == 0
        assert shrunk.fleet_kind == "uniform"
        assert shrunk.policy == "hash"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestFleetCLI:
    def test_fleet_list(self, capsys):
        assert main(["fleet", "list"]) == 0
        out = capsys.readouterr().out
        assert "fleet-diurnal" in out
        assert "least-loaded" in out

    def test_fleet_run_persists_and_reports(self, capsys, tmp_path):
        store = tmp_path / "smoke.jsonl"
        code = main(["fleet", "run", "fleet-smoke", "--out", str(store)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Fleet fleet-smoke" in out
        assert "shard0" in out and "shard1" in out
        assert store.exists()
        capsys.readouterr()
        assert main(["replay", str(store)]) == 0
        assert "fleet-smoke" in capsys.readouterr().out

    def test_fleet_run_scaling_flags(self, capsys, tmp_path):
        store = tmp_path / "scaled.jsonl"
        code = main([
            "fleet", "run", "fleet-smoke", "--shards", "3",
            "--apps", "6", "--seed", "2", "--out", str(store),
        ])
        assert code == 0
        records, _ = load_records(store)
        assert len(records) == 3
        assert sum(r.n_apps for r in records) == 6
        assert all(r.seed == 2 for r in records)

    def test_run_and_replay_need_only_the_standard_library(self, tmp_path):
        """``python -m repro`` with numpy, scipy and networkx made
        unimportable: a ``--jobs 2`` fleet run (whose forked workers
        inherit the block) and its replay both succeed."""
        script = (
            "import runpy, sys\n"
            "sys.modules.update(numpy=None, scipy=None, networkx=None)\n"
            "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
        )
        out = tmp_path / "fleet-smoke.jsonl"
        env = dict(os.environ, PYTHONPATH=SRC)
        for argv in (
            ["fleet", "run", "fleet-smoke", "--jobs", "2", "--out", str(out)],
            ["replay", str(out)],
        ):
            result = subprocess.run(
                [sys.executable, "-c", script, *argv],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0, result.stderr
        assert "fleet-smoke" in result.stdout

    def test_fleet_run_unknown_scenario_is_operator_error(self, capsys):
        assert main(["fleet", "run", "missing"]) == 2
        assert "unknown fleet scenario" in capsys.readouterr().err

    def test_verify_sweeps_fleet_scenarios(self, capsys, tmp_path):
        code = main([
            "verify", "--scenario", "fleet-smoke",
            "--repro-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet-smoke" in out
        assert "shard 0/2" in out and "shard 1/2" in out
        assert "bit-identical" in out

    def test_verify_fuzz_accepts_fleet_scenario(self, capsys, tmp_path):
        code = main([
            "verify", "--fuzz", "3", "--seed", "1",
            "--scenario", "fleet-smoke", "--repro-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet" in out
        assert "all 3 cases bit-identical" in out
