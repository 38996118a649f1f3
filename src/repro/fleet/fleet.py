"""The sharded fleet: N independent clusters behind a routing front-end.

A :class:`FleetScenario` declares the whole deployment — shard count,
routing policy, the global arrival stream and the per-shard system — and
:class:`Fleet` turns it into executable work: the supervised front-end
routes the stream into per-shard sub-streams
(:func:`repro.fleet.control.supervised_partition`, under the scenario's
fault schedule — empty when it declares none), and every (seed × shard)
pair becomes one explicit-arrival
:class:`~repro.campaign.backend.CampaignCell`.  Each cell rebuilds its own
engine, RNG streams and instance-id space, so the campaign backends run
shards serially or fanned out over worker processes with bit-identical
per-shard records; the dispatch plan itself is a pure function of
``(scenario, seed)`` and reproduces in any process (no ``hash()``, no
``id()`` anywhere on the path).

Results persist through the campaign results layer — one
:class:`~repro.campaign.results.RunRecord` per shard, tagged with its
shard index — and roll up into per-shard and global response/utilization
aggregates via the existing metrics layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..campaign.backend import DEFAULT_HORIZON_MS, CampaignCell, make_backend
from ..campaign.results import ResultsStore, RunRecord
from ..campaign.scenario import SYSTEM_REGISTRY, get_system
from ..chaos import FaultSchedule, FaultSpec
from ..config import DEFAULT_PARAMETERS, SystemParameters
from ..metrics.report import format_table
from .control import ServingPlan, supervised_partition
from .routing import ROUTING_POLICIES, load_imbalance
from .workload import FleetWorkload

from ..workloads.generator import Arrival


@dataclass(frozen=True)
class FleetScenario:
    """A declarative, picklable fleet deployment spec."""

    name: str
    system: str
    n_shards: int
    policy: str
    workload: FleetWorkload
    seeds: Tuple[int, ...] = (1,)
    #: ``SystemParameters`` overrides, sorted pairs (hashable, like
    #: :class:`~repro.campaign.scenario.Scenario`).
    overrides: Tuple[Tuple[str, float], ...] = ()
    description: str = ""
    #: Declared fault schedule, flat-tuple form (``FaultSpec.to_tuple``):
    #: hashable, picklable, reviewable in the scenario definition.  Also
    #: accepts a :class:`FaultSchedule` or ``FaultSpec`` iterables.
    faults: Tuple[Tuple[str, float, int, float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(self.seeds))
        pairs = (
            sorted(self.overrides.items())
            if isinstance(self.overrides, Mapping)
            else sorted(tuple(pair) for pair in self.overrides)
        )
        object.__setattr__(self, "overrides", tuple(pairs))
        schedule = (
            self.faults
            if isinstance(self.faults, FaultSchedule)
            else FaultSchedule(
                fault if isinstance(fault, FaultSpec)
                else FaultSpec.from_tuple(fault)
                for fault in self.faults
            )
        )
        object.__setattr__(self, "faults", schedule.to_tuples())
        if self.n_shards < 1:
            raise ValueError(f"fleet {self.name!r} needs >= 1 shard")
        if not self.seeds:
            raise ValueError(f"fleet {self.name!r} has no seeds")
        if self.system not in SYSTEM_REGISTRY:
            raise KeyError(
                f"fleet {self.name!r}: unknown system {self.system!r}; "
                f"available: {', '.join(SYSTEM_REGISTRY)}"
            )
        if self.policy not in ROUTING_POLICIES:
            raise KeyError(
                f"fleet {self.name!r}: unknown routing policy "
                f"{self.policy!r}; available: {', '.join(ROUTING_POLICIES)}"
            )
        self.fault_schedule().validate_for(self.n_shards)

    def fault_schedule(self) -> FaultSchedule:
        """The declared faults as a typed, validated schedule."""
        return FaultSchedule.from_tuples(self.faults)

    def system_names(self) -> Tuple[str, ...]:
        """The (single) system every shard runs — campaign-Scenario shape."""
        return (self.system,)

    def parameters(self, base: Optional[SystemParameters] = None) -> SystemParameters:
        resolved = base if base is not None else DEFAULT_PARAMETERS
        if self.overrides:
            resolved = resolved.with_overrides(**dict(self.overrides))
        return resolved

    def scaled(
        self,
        n_shards: Optional[int] = None,
        n_apps: Optional[int] = None,
        seeds: Optional[Tuple[int, ...]] = None,
    ) -> "FleetScenario":
        """A copy with the shard count / stream size / seeds adjusted.

        Shrinking the shard count drops faults (and their recoveries)
        naming shards outside the new range rather than rejecting the
        scaled scenario.
        """
        import dataclasses

        workload = self.workload
        if n_apps is not None:
            workload = dataclasses.replace(workload, n_apps=n_apps)
        target_shards = n_shards if n_shards is not None else self.n_shards
        faults = tuple(
            fault for fault in self.faults if fault[2] < target_shards
        )
        return dataclasses.replace(
            self,
            n_shards=target_shards,
            workload=workload,
            seeds=tuple(seeds) if seeds is not None else self.seeds,
            faults=faults,
        )

    def cell_count(self) -> int:
        return self.n_shards * len(self.seeds)


#: Registered fleet scenarios by name (insertion-ordered dict).
FLEET_SCENARIOS: Dict[str, FleetScenario] = {}


def register_fleet_scenario(scenario: FleetScenario) -> FleetScenario:
    if scenario.name in FLEET_SCENARIOS:
        raise ValueError(f"fleet scenario {scenario.name!r} is already registered")
    FLEET_SCENARIOS[scenario.name] = scenario
    return scenario


def get_fleet_scenario(name: str) -> FleetScenario:
    try:
        return FLEET_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown fleet scenario {name!r}; "
            f"available: {', '.join(FLEET_SCENARIOS)}"
        ) from None


def fleet_scenario_names() -> List[str]:
    return list(FLEET_SCENARIOS)


# ---------------------------------------------------------------------------
# Rollups
# ---------------------------------------------------------------------------


@dataclass
class ShardRollup:
    """Aggregates of one shard (or the whole fleet, ``shard == -1``)."""

    shard: int
    runs: int
    n_apps: int
    mean_ms: float
    p95_ms: float
    p99_ms: float
    mean_makespan_ms: float
    pr_count: int
    fabric_lut: float

    @property
    def label(self) -> str:
        return "fleet" if self.shard < 0 else f"shard{self.shard}"


@dataclass
class FleetRollup:
    """Per-shard plus global aggregates of one fleet run."""

    scenario: str
    system: str
    policy: str
    n_shards: int
    per_shard: List[ShardRollup] = field(default_factory=list)
    overall: Optional[ShardRollup] = None
    #: Max/mean estimated shard load of the dispatch plan (mean over seeds).
    imbalance: float = 1.0
    #: Requests refused by the degraded-mode front-end (sum over seeds).
    shed: int = 0
    #: Reroute hops taken off dead shards (sum over seeds).
    rerouted: int = 0

    def table(self) -> str:
        rows = [
            [
                rollup.label, rollup.runs, rollup.n_apps, rollup.mean_ms,
                rollup.p95_ms, rollup.p99_ms, rollup.mean_makespan_ms,
                rollup.pr_count, rollup.fabric_lut,
            ]
            for rollup in [*self.per_shard, *([self.overall] if self.overall else [])]
        ]
        return format_table(
            ["shard", "runs", "apps", "mean (ms)", "p95 (ms)", "p99 (ms)",
             "makespan (ms)", "PRs", "fabric LUT"],
            rows,
            title=(
                f"Fleet {self.scenario} — {self.system}, "
                f"{self.n_shards} shards, policy {self.policy} "
                f"(load imbalance {self.imbalance:.2f}"
                + (
                    f", shed {self.shed}, rerouted {self.rerouted}"
                    if self.shed or self.rerouted
                    else ""
                )
                + ")"
            ),
        )


def rollup_records(
    scenario: FleetScenario,
    records: List[RunRecord],
    imbalance: float = 1.0,
    serving_plans: Optional[Mapping[int, ServingPlan]] = None,
) -> FleetRollup:
    """Per-shard + global rollups of one fleet run's records.

    The aggregation itself is the store layer's
    :class:`~repro.store.projections.FleetRollupProjection` — the same
    incremental fold that runs over a notification log runs here over an
    in-memory record list, so the batch rollup and the projection cannot
    drift apart.  Digests merge (or raw samples pool) per shard instead
    of concatenating per-request lists: O(#shards), not O(#requests).
    """
    from ..store.projections import FleetRollupProjection

    projection = FleetRollupProjection()
    for record in records:
        projection.fold_record(record)
    per_shard, overall = projection.render_rollups()
    rollup = FleetRollup(
        scenario=scenario.name,
        system=scenario.system,
        policy=scenario.policy,
        n_shards=scenario.n_shards,
        imbalance=imbalance,
        shed=sum(p.shed_count for p in (serving_plans or {}).values()),
        rerouted=sum(
            p.reroute_count for p in (serving_plans or {}).values()
        ),
    )
    rollup.per_shard = per_shard
    rollup.overall = overall if overall is not None else ShardRollup(
        shard=-1, runs=0, n_apps=0, mean_ms=0.0, p95_ms=0.0, p99_ms=0.0,
        mean_makespan_ms=0.0, pr_count=0, fabric_lut=0.0,
    )
    return rollup


# ---------------------------------------------------------------------------
# The fleet itself
# ---------------------------------------------------------------------------


@dataclass
class FleetResult:
    """Everything one fleet run produced."""

    scenario: FleetScenario
    records: List[RunRecord]
    rollup: FleetRollup
    #: Per-seed supervised serving plans.
    serving_plans: Dict[int, ServingPlan] = field(default_factory=dict)
    #: Shard cells skipped by ``resume=True`` (0 for fresh runs).
    resumed_cells: int = 0


class Fleet:
    """N cluster shards behind the routing/admission front-end.

    The fleet object is the *orchestrator*: it owns the dispatch plan and
    delegates shard execution to the campaign backends so one shard ==
    one campaign cell (each cell rebuilds its own engine and RNG streams).
    """

    def __init__(
        self,
        scenario: FleetScenario,
        base_params: Optional[SystemParameters] = None,
    ) -> None:
        get_system(scenario.system)  # fail fast on an unknown system
        self.scenario = scenario
        self.params = scenario.parameters(base_params)

    # ------------------------------------------------------------------
    def serving_plan(self, seed: int) -> ServingPlan:
        """The supervised serving plan of one seed.

        The plan is audited against the no-lost-requests invariants
        before anything simulates from it — a control-plane bug fails
        loudly at planning time, never as silent request loss.
        """
        from ..verify.invariants import check_serving_plan

        scenario = self.scenario
        arrivals = scenario.workload.arrivals(seed)
        plan = supervised_partition(
            arrivals, scenario.n_shards, scenario.policy, seed,
            scenario.fault_schedule(),
        )
        violations = check_serving_plan(plan, arrivals)
        if violations:
            raise ValueError(
                f"fleet {scenario.name!r} seed {seed}: serving plan "
                f"violates no-lost-requests invariants: "
                + "; ".join(str(v) for v in violations[:5])
            )
        return plan

    def shard_plan(self, seed: int) -> List[List[Arrival]]:
        """The dispatch plan: the global stream routed into shards (the
        serving plan's final per-shard arrival streams, rerouting and
        shedding included)."""
        return self.serving_plan(seed).streams

    def plan_bundle(
        self,
    ) -> Tuple[Dict[int, List[List[Arrival]]], Dict[int, "ServingPlan"]]:
        """Per-seed dispatch streams plus serving plans, computed once, in
        memory (:meth:`write_admission_logs` persists the plans' events)."""
        serving_plans = {
            seed: self.serving_plan(seed) for seed in self.scenario.seeds
        }
        plans = {seed: plan.streams for seed, plan in serving_plans.items()}
        return plans, serving_plans

    def write_admission_logs(
        self,
        serving_plans: Dict[int, "ServingPlan"],
        events_dir: Union[str, Path],
    ) -> None:
        """One admission event log per seed under ``events_dir``.

        Each log holds every control-plane event of the seed's serving
        plan in order (the routed stream's source of truth — including any
        shard-down/reroute/shed control events under faults).
        """
        from ..telemetry import JsonlEventLogSink

        for seed, plan in serving_plans.items():
            sink = JsonlEventLogSink(
                Path(events_dir)
                / f"{self.scenario.name}-admission-seed{seed}.jsonl",
                meta={
                    "scenario": self.scenario.name,
                    "policy": self.scenario.policy,
                    "n_shards": self.scenario.n_shards,
                    "seed": seed,
                },
            )
            try:
                for event in plan.events:
                    sink.handle(event)
            finally:
                sink.close()

    def plans(self) -> Dict[int, List[List[Arrival]]]:
        """The dispatch plan of every seed, computed once."""
        plans, _ = self.plan_bundle()
        return plans

    def cells(
        self,
        kernel: str = "default",
        plans: Optional[Dict[int, List[List[Arrival]]]] = None,
        keep_raw_samples: bool = False,
        events_dir: Optional[Union[str, Path]] = None,
    ) -> List[CampaignCell]:
        """One explicit-arrival campaign cell per (seed × shard)."""
        scenario = self.scenario
        if plans is None:
            plans = self.plans()
        label = scenario.workload.condition.label
        cells: List[CampaignCell] = []
        for seed in scenario.seeds:
            for shard, arrivals in enumerate(plans[seed]):
                events_path = None
                if events_dir is not None:
                    events_path = str(
                        Path(events_dir)
                        / f"{scenario.name}-seed{seed}-shard{shard}.jsonl"
                    )
                cells.append(
                    CampaignCell(
                        scenario=scenario.name,
                        system=scenario.system,
                        sequence_index=0,
                        seed=seed,
                        params=self.params,
                        arrivals=tuple(arrivals),
                        horizon_ms=DEFAULT_HORIZON_MS,
                        kernel=kernel,
                        shard=shard,
                        condition_label=label,
                        keep_raw_samples=keep_raw_samples,
                        events_path=events_path,
                    )
                )
        return cells

    def run(
        self,
        jobs: int = 1,
        store: Optional[Union[ResultsStore, str, Path]] = None,
        kernel: str = "default",
        keep_raw_samples: bool = False,
        events_dir: Optional[Union[str, Path]] = None,
        timeout_s: Optional[float] = None,
        snapshot_every: int = 0,
        resume: bool = False,
    ) -> FleetResult:
        """Execute every shard cell and roll the records up.

        ``jobs=1`` runs shards serially in-process (the determinism
        reference); ``jobs=N`` fans shards out over N worker processes
        with bit-identical records — ``timeout_s`` bounds each cell's
        wall-clock there (k × ``timeout_s`` for a pool task of k cells;
        hung workers killed, cells retried in isolation, persistent
        failure surfaced as a failure record).  ``events_dir`` persists
        the full telemetry stream: one admission log per seed from the
        front-end, written once the store has accepted the run, plus one
        event log per (seed × shard) cell.

        ``snapshot_every`` / ``resume`` opt the run into the durable
        SQLite store (:mod:`repro.store`): records append in checkpointed
        chunks and an interrupted run resumed with ``resume=True`` skips
        finished shard cells, producing records and rollups bit-identical
        to an uninterrupted run.  The store is resolved
        (:func:`~repro.store.resolve_store`) before anything runs.
        """
        from ..store import execute_with_store, resolve_store

        store = resolve_store(store, resume, snapshot_every)
        backend = make_backend(jobs, timeout_s=timeout_s)
        # The admission logs are written only once the store has accepted
        # the campaign, so a refused resume writes nothing.
        plans, serving_plans = self.plan_bundle()
        cells = self.cells(
            kernel=kernel,
            plans=plans,
            keep_raw_samples=keep_raw_samples,
            events_dir=events_dir,
        )

        outcome = execute_with_store(
            backend,
            cells,
            store=store,
            snapshot_every=snapshot_every,
            resume=resume,
            before_run=None if events_dir is None else (
                lambda: self.write_admission_logs(serving_plans, events_dir)
            ),
        )
        records = outcome.records
        imbalances = [load_imbalance(plan) for plan in plans.values()]
        rollup = rollup_records(
            self.scenario, records, sum(imbalances) / len(imbalances),
            serving_plans=serving_plans,
        )
        return FleetResult(
            scenario=self.scenario, records=records, rollup=rollup,
            serving_plans=serving_plans, resumed_cells=outcome.resumed,
        )
