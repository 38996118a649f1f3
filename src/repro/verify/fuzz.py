"""Property-based scenario fuzzing for the differential oracle.

The fuzzer samples random (system × workload × parameters) cells through
the campaign registry — every registered scenario is a template whose
workload shape, seeds and parameter overrides get perturbed — and drives
each sampled :class:`FuzzCase` through the oracle.  Sampling is fully
deterministic: case ``i`` of root seed ``s`` is always the same case, and
each case owns an independent RNG stream so shrinking one case never
shifts its neighbours.

A failing case is **shrunk** (greedy: fewer applications, flatter batch
range, dropped overrides, calmer congestion — every candidate re-checked
against the oracle) and **persisted** as a JSON repro file that
``python -m repro replay <file>`` turns back into the exact
failing comparison.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..apps.benchmarks import BENCHMARKS
from ..campaign.scenario import SCENARIOS, SYSTEM_REGISTRY, Scenario, system_names
from ..chaos import FaultSchedule, sample_fault_schedule
from ..config import DEFAULT_PARAMETERS, SystemParameters
from ..fleet import (
    FLEET_SCENARIOS,
    FleetScenario,
    FleetWorkload,
    policy_names,
    supervised_partition,
)
from ..workloads.generator import Arrival, Condition, WorkloadSpec

#: Marker distinguishing repro files from RunRecord JSONL results.
REPRO_KIND = "verify-repro"

#: Bumped whenever the repro file shape changes incompatibly.
REPRO_SCHEMA = 1

#: Parameter overrides the fuzzer may inject, with the values it samples
#: from.  Deliberately conservative: every combination must still drain
#: (the oracle treats a divergent *failure* as a finding, but a scenario
#: that hangs on both kernels is a workload bug, not a kernel bug).
SAFE_OVERRIDES: Dict[str, Tuple[float, ...]] = {
    "inter_slot_transfer_ms": (5.0, 10.0, 25.0),
    "pcap_bandwidth_mbps": (100.0, 200.0),
    "launch_overhead_ms": (0.02, 0.1),
    "scheduler_action_ms": (0.01, 0.05),
    "little_bitstream_mb": (10.0, 20.0),
    "pr_failure_rate": (0.02,),
    "only_little_slots": (4, 6),
    "big_little_little_slots": (2, 4),
}


@lru_cache(maxsize=64)
def _fleet_serving_plan(
    workload: FleetWorkload,
    n_shards: int,
    policy: str,
    seed: int,
    sequence_index: int,
    faults: Tuple[Tuple[str, float, int, float, float], ...],
):
    """Memoized serving plan shared by a fleet deployment's shard cases.

    A fleet sweep enumerates one case per shard of the same deployment;
    without the memo every case would regenerate the full global stream
    and re-plan it (O(shards²) plans per sweep).  An empty fault schedule
    is the fault-free plan.
    """
    stream = workload.arrivals(seed, sequence_index)
    return supervised_partition(
        stream, n_shards, policy, seed, FaultSchedule.from_tuples(faults)
    )


@dataclass(frozen=True)
class FuzzCase:
    """One oracle-checkable cell: a system, a seeded workload, parameters."""

    case_id: int
    system: str
    condition: str
    n_apps: int
    batch_lo: int
    batch_hi: int
    seed: int
    sequence_index: int = 0
    apps: Tuple[str, ...] = ()
    overrides: Tuple[Tuple[str, float], ...] = ()
    #: The registered scenario this case was derived from (label only).
    scenario: str = "fuzz"
    #: Fleet shape: ``n_shards == 0`` means a plain single-cluster case;
    #: otherwise the case checks shard ``shard`` of an ``n_shards``-wide
    #: fleet whose global ``fleet_kind`` stream is routed by ``policy``.
    n_shards: int = 0
    policy: str = ""
    shard: int = 0
    fleet_kind: str = ""
    #: Fault schedule injected into the fleet's control plane, flat-tuple
    #: form (``FaultSpec.to_tuple``).  Only meaningful for fleet cases.
    faults: Tuple[Tuple[str, float, int, float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "apps", tuple(self.apps))
        object.__setattr__(
            self, "overrides", tuple(tuple(pair) for pair in self.overrides)
        )
        if self.n_shards and not 0 <= self.shard < self.n_shards:
            raise ValueError(
                f"shard {self.shard} outside [0, {self.n_shards})"
            )
        schedule = FaultSchedule(
            fault if isinstance(fault, tuple) else tuple(fault)
            for fault in self.faults
        )
        if self.n_shards:
            schedule.validate_for(self.n_shards)
        elif schedule:
            raise ValueError("faults require a fleet case (n_shards > 0)")
        object.__setattr__(self, "faults", schedule.to_tuples())

    # ------------------------------------------------------------------
    @property
    def is_fleet(self) -> bool:
        return self.n_shards > 0

    def workload(self) -> WorkloadSpec:
        return WorkloadSpec(
            condition=Condition[self.condition],
            n_apps=self.n_apps,
            sequence_count=self.sequence_index + 1,
            batch_range=(self.batch_lo, self.batch_hi),
            apps=self.apps,
        )

    def fleet_workload(self) -> FleetWorkload:
        return FleetWorkload(
            kind=self.fleet_kind or "uniform",
            condition=Condition[self.condition],
            n_apps=self.n_apps,
            batch_range=(self.batch_lo, self.batch_hi),
            apps=self.apps,
        )

    def fault_schedule(self) -> FaultSchedule:
        return FaultSchedule.from_tuples(self.faults)

    def _serving_plan(self):
        """The memoized serving plan of this fleet case's deployment."""
        return _fleet_serving_plan(
            self.fleet_workload(), self.n_shards, self.policy or "hash",
            self.seed, self.sequence_index, self.faults,
        )

    def arrivals(self) -> List[Arrival]:
        if self.is_fleet:
            return list(self._serving_plan().streams[self.shard])
        return self.workload().sequence(self.seed, self.sequence_index)

    def plan_violations(self) -> List[str]:
        """No-lost-requests audit of this case's serving plan.

        Empty for non-fleet cases.  A fleet case's plan, faulted or not,
        is checked against the ledger/stream invariants
        (:func:`repro.verify.invariants.check_serving_plan`); any finding
        is a control-plane bug the oracle must surface even when the
        kernels agree with each other.
        """
        if not self.is_fleet:
            return []
        from .invariants import check_serving_plan  # lazy: heavy import

        stream = self.fleet_workload().arrivals(self.seed, self.sequence_index)
        return [str(v) for v in check_serving_plan(self._serving_plan(), stream)]

    def params(self) -> SystemParameters:
        if not self.overrides:
            return DEFAULT_PARAMETERS
        return DEFAULT_PARAMETERS.with_overrides(**dict(self.overrides))

    def describe(self) -> str:
        parts = [
            f"case {self.case_id}",
            self.system,
            f"{self.condition.lower()}",
            f"{self.n_apps} apps",
            f"batch [{self.batch_lo}, {self.batch_hi}]",
            f"seed {self.seed}/{self.sequence_index}",
        ]
        if self.is_fleet:
            parts.append(
                f"fleet {self.fleet_kind or 'uniform'} "
                f"shard {self.shard}/{self.n_shards} via {self.policy or 'hash'}"
            )
        if self.faults:
            parts.append(
                "faults "
                + ",".join(f.describe() for f in self.fault_schedule())
            )
        if self.overrides:
            parts.append(
                "overrides "
                + ",".join(f"{name}={value}" for name, value in self.overrides)
            )
        return " ".join(parts)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        payload = dataclasses.asdict(self)
        payload["apps"] = list(self.apps)
        payload["overrides"] = [list(pair) for pair in self.overrides]
        payload["faults"] = [list(fault) for fault in self.faults]
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FuzzCase":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - fields)
        if unknown:
            raise ValueError(f"unknown fuzz-case fields: {', '.join(unknown)}")
        missing = sorted(
            {
                f.name
                for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING  # type: ignore[misc]
            }
            - set(payload)
        )
        if missing:
            raise ValueError(f"fuzz case is missing fields: {', '.join(missing)}")
        return cls(**payload)  # type: ignore[arg-type]


def cases_from_scenario(scenario: Scenario) -> List[FuzzCase]:
    """The exhaustive oracle cells of one registered scenario.

    Enumeration order mirrors ``CampaignRunner.cells_for`` (seed-major,
    then sequence, then system) so ``repro verify --scenario X`` visits
    cells in the same order ``repro campaign run X`` simulates them.
    """
    workload = scenario.workload
    lo, hi = workload.batch_range
    cases: List[FuzzCase] = []
    for seed in scenario.seeds:
        for index in range(workload.sequence_count):
            for system in scenario.system_names():
                cases.append(
                    FuzzCase(
                        case_id=len(cases),
                        system=system,
                        condition=workload.condition.name,
                        n_apps=workload.n_apps,
                        batch_lo=lo,
                        batch_hi=hi,
                        seed=seed,
                        sequence_index=index,
                        apps=workload.apps,
                        overrides=scenario.overrides,
                        scenario=scenario.name,
                    )
                )
    return cases


def cases_from_fleet_scenario(scenario: FleetScenario) -> List[FuzzCase]:
    """The exhaustive oracle cells of one fleet scenario: every shard.

    Enumeration mirrors :meth:`repro.fleet.Fleet.cells` (seed-major, then
    shard), so ``repro verify --scenario fleet-X`` checks exactly the
    cells ``repro fleet run fleet-X`` simulates — each shard's sub-stream
    on both kernels.
    """
    workload = scenario.workload
    lo, hi = workload.batch_range
    cases: List[FuzzCase] = []
    for seed in scenario.seeds:
        for shard in range(scenario.n_shards):
            cases.append(
                FuzzCase(
                    case_id=len(cases),
                    system=scenario.system,
                    condition=workload.condition.name,
                    n_apps=workload.n_apps,
                    batch_lo=lo,
                    batch_hi=hi,
                    seed=seed,
                    sequence_index=0,
                    apps=workload.apps,
                    overrides=scenario.overrides,
                    scenario=scenario.name,
                    n_shards=scenario.n_shards,
                    policy=scenario.policy,
                    shard=shard,
                    fleet_kind=workload.kind,
                    faults=scenario.faults,
                )
            )
    return cases


class ScenarioFuzzer:
    """Deterministic sampler of :class:`FuzzCase` s over the registry."""

    def __init__(
        self,
        seed: int,
        scenario: Optional[str] = None,
        systems: Optional[Sequence[str]] = None,
        max_apps: int = 6,
        max_batch: int = 12,
        chaos: bool = False,
    ) -> None:
        if (
            scenario is not None
            and scenario not in SCENARIOS
            and scenario not in FLEET_SCENARIOS
        ):
            raise KeyError(
                f"unknown scenario {scenario!r}; available: "
                f"{', '.join((*SCENARIOS, *FLEET_SCENARIOS))}"
            )
        if chaos and scenario is not None and scenario not in FLEET_SCENARIOS:
            raise KeyError(
                f"chaos fuzzing needs a fleet scenario, not {scenario!r}; "
                f"available: {', '.join(FLEET_SCENARIOS)}"
            )
        unknown = [name for name in (systems or ()) if name not in SYSTEM_REGISTRY]
        if unknown:
            raise KeyError(
                f"unknown system(s) {', '.join(unknown)}; "
                f"available: {', '.join(SYSTEM_REGISTRY)}"
            )
        self.seed = seed
        self.scenario = scenario
        self.systems = tuple(systems) if systems else ()
        self.max_apps = max_apps
        self.max_batch = max_batch
        #: Chaos mode samples only fleet deployments and always injects a
        #: fault schedule into each.
        self.chaos = chaos

    def case(self, index: int) -> FuzzCase:
        """Sample case ``index`` (independent of every other index)."""
        rng = random.Random(f"verify-fuzz/{self.seed}/{index}")
        if self.chaos:
            name = self.scenario or rng.choice(list(FLEET_SCENARIOS))
        else:
            name = self.scenario or rng.choice([*SCENARIOS, *FLEET_SCENARIOS])
        if name in FLEET_SCENARIOS:
            return self._fleet_case(index, rng, FLEET_SCENARIOS[name])
        template = SCENARIOS[name]
        pool = self.systems or template.system_names() or tuple(system_names())
        system = rng.choice(list(pool))
        # Mostly keep the template's congestion regime; sometimes roam.
        if rng.random() < 0.25:
            condition = rng.choice(list(Condition)).name
        else:
            condition = template.workload.condition.name
        n_apps = rng.randint(1, min(self.max_apps, template.workload.n_apps))
        batch_lo = rng.randint(1, 4)
        batch_hi = batch_lo + rng.randint(0, self.max_batch - batch_lo)
        overrides = dict(template.overrides)
        for _ in range(rng.randint(0, 2)):
            key = rng.choice(sorted(SAFE_OVERRIDES))
            overrides[key] = rng.choice(SAFE_OVERRIDES[key])
        apps: Tuple[str, ...] = ()
        if rng.random() < 0.2:
            count = rng.randint(1, len(BENCHMARKS))
            apps = tuple(sorted(rng.sample(sorted(BENCHMARKS), count)))
        return FuzzCase(
            case_id=index,
            system=system,
            condition=condition,
            n_apps=n_apps,
            batch_lo=batch_lo,
            batch_hi=batch_hi,
            seed=rng.randrange(10_000),
            sequence_index=rng.randrange(2),
            apps=apps,
            overrides=tuple(sorted(overrides.items())),
            scenario=name,
        )

    def _fleet_case(
        self, index: int, rng: random.Random, template: FleetScenario
    ) -> FuzzCase:
        """Sample one shard of a perturbed fleet deployment.

        The fleet shape roams around the template — shard count, routing
        policy and the checked shard all vary — while ``n_apps`` sizes the
        *global* stream, so the shard under test sees a routed sub-stream.
        """
        system = rng.choice(list(self.systems)) if self.systems else template.system
        if rng.random() < 0.25:
            condition = rng.choice(list(Condition)).name
        else:
            condition = template.workload.condition.name
        n_shards = rng.randint(2, max(2, template.n_shards))
        if rng.random() < 0.25:
            policy = rng.choice(policy_names())
        else:
            policy = template.policy
        shard = rng.randrange(n_shards)
        n_apps = rng.randint(
            1, min(2 * self.max_apps, template.workload.n_apps)
        )
        batch_lo = rng.randint(1, 4)
        batch_hi = batch_lo + rng.randint(0, self.max_batch - batch_lo)
        overrides = dict(template.overrides)
        for _ in range(rng.randint(0, 2)):
            key = rng.choice(sorted(SAFE_OVERRIDES))
            overrides[key] = rng.choice(SAFE_OVERRIDES[key])
        faults: Tuple[Tuple[str, float, int, float, float], ...] = ()
        if self.chaos or rng.random() < 0.35:
            # A schedule sized to the sampled stream: faults land inside
            # the expected arrival span, so kills actually interact with
            # admissions instead of firing into a drained fleet.
            lo_ms, hi_ms = Condition[condition].interval_range
            span_ms = max(1.0, n_apps * (lo_ms + hi_ms) / 2.0)
            faults = sample_fault_schedule(
                rng.randrange(1_000_000), n_shards, span_ms
            ).to_tuples()
        return FuzzCase(
            case_id=index,
            system=system,
            condition=condition,
            n_apps=n_apps,
            batch_lo=batch_lo,
            batch_hi=batch_hi,
            seed=rng.randrange(10_000),
            sequence_index=rng.randrange(2),
            overrides=tuple(sorted(overrides.items())),
            scenario=template.name,
            n_shards=n_shards,
            policy=policy,
            shard=shard,
            fleet_kind=template.workload.kind,
            faults=faults,
        )

    def cases(self, count: int) -> Iterator[FuzzCase]:
        for index in range(count):
            yield self.case(index)


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------


def _shrink_candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    """Strictly simpler variants of ``case``, most aggressive first."""
    if case.faults:
        # Faults shrink first: a divergence that survives without any
        # fault schedule is a plain kernel bug, not a chaos finding —
        # and a one-shard-fewer schedule isolates which failure matters.
        yield dataclasses.replace(case, faults=())
        for shard in sorted({fault[2] for fault in case.faults}):
            remaining = tuple(
                fault for fault in case.faults if fault[2] != shard
            )
            if remaining != case.faults:
                yield dataclasses.replace(case, faults=remaining)
    if case.is_fleet:
        # Drop the fleet wrapping entirely: the full (unrouted) stream on
        # one cluster is the simplest variant of a shard case.
        yield dataclasses.replace(
            case, n_shards=0, policy="", shard=0, fleet_kind="", faults=()
        )
    for n_apps in sorted({1, case.n_apps // 2, case.n_apps - 1}):
        if 1 <= n_apps < case.n_apps:
            yield dataclasses.replace(case, n_apps=n_apps)
    if case.is_fleet:
        if case.n_shards > 2:
            yield dataclasses.replace(
                case, n_shards=2, shard=min(case.shard, 1),
                faults=tuple(f for f in case.faults if f[2] < 2),
            )
        if case.shard:
            yield dataclasses.replace(case, shard=0)
        if case.fleet_kind not in ("", "uniform"):
            yield dataclasses.replace(case, fleet_kind="uniform")
        if case.policy not in ("", "hash"):
            yield dataclasses.replace(case, policy="hash")
    for batch_hi in sorted({case.batch_lo, (case.batch_lo + case.batch_hi) // 2}):
        if case.batch_lo <= batch_hi < case.batch_hi:
            yield dataclasses.replace(case, batch_hi=batch_hi)
    if case.sequence_index:
        yield dataclasses.replace(case, sequence_index=0)
    for index in range(len(case.overrides)):
        remaining = case.overrides[:index] + case.overrides[index + 1:]
        yield dataclasses.replace(case, overrides=remaining)
    if case.condition != Condition.LOOSE.name:
        yield dataclasses.replace(case, condition=Condition.LOOSE.name)
    if case.apps:
        yield dataclasses.replace(case, apps=())


def shrink_case(
    case: FuzzCase,
    still_fails: Callable[[FuzzCase], bool],
    budget: int = 48,
) -> Tuple[FuzzCase, int]:
    """Greedy shrink: keep the first simpler variant that still fails.

    ``still_fails`` re-runs the oracle on a candidate; ``budget`` bounds
    the total number of those runs.  Returns the shrunk case and the
    number of oracle runs spent.
    """
    attempts = 0
    current = case
    progress = True
    while progress and attempts < budget:
        progress = False
        for candidate in _shrink_candidates(current):
            if attempts >= budget:
                break
            attempts += 1
            if still_fails(candidate):
                current = candidate
                progress = True
                break
    return current, attempts


# ---------------------------------------------------------------------------
# Repro files
# ---------------------------------------------------------------------------


def save_repro(path: Union[str, Path], case: FuzzCase, report) -> Path:
    """Persist a failing case (plus its divergence) as a replayable repro."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "kind": REPRO_KIND,
        "schema": REPRO_SCHEMA,
        "case": case.to_dict(),
        "divergence": report.to_dict() if report is not None else None,
    }
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def is_repro_payload(payload: object) -> bool:
    """True when a parsed JSON document is a verify repro file."""
    return isinstance(payload, dict) and payload.get("kind") == REPRO_KIND


def sniff_repro_file(path: Union[str, Path]) -> Optional[Dict[str, object]]:
    """The parsed repro payload when ``path`` is one, else None.

    Cheap first: only a bounded prefix is read to rule out results JSONL
    files (whose first line is one complete record, never a bare ``{``,
    and which never contain the ``kind`` marker).  Only a plausible repro
    is then parsed in full; the marker separates repros from any other
    single-document JSON.
    """
    target = Path(path)
    with target.open("r", encoding="utf-8") as handle:
        prefix = handle.read(4096)
    if not prefix.lstrip().startswith("{"):
        return None
    first_line = prefix.splitlines()[0].strip()
    if first_line != "{" and f'"kind": "{REPRO_KIND}"' not in prefix:
        return None
    try:
        payload = json.loads(target.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    return payload if is_repro_payload(payload) else None


def parse_repro_payload(
    payload: Dict[str, object], source: str = "<payload>"
) -> Tuple[FuzzCase, Optional[Dict[str, object]]]:
    """Validate an already-parsed repro document into (case, divergence)."""
    if not is_repro_payload(payload):
        raise ValueError(f"{source}: not a {REPRO_KIND} file")
    schema = payload.get("schema", REPRO_SCHEMA)
    if schema != REPRO_SCHEMA:
        raise ValueError(
            f"{source}: repro schema {schema} not supported "
            f"(expected {REPRO_SCHEMA})"
        )
    case = FuzzCase.from_dict(payload["case"])
    return case, payload.get("divergence")


def load_repro(path: Union[str, Path]) -> Tuple[FuzzCase, Optional[Dict[str, object]]]:
    """Load a repro file back into its case and recorded divergence."""
    return parse_repro_payload(json.loads(Path(path).read_text()), source=str(path))


def replay_case(case: FuzzCase, oracle=None):
    """Run one case through the oracle; returns the fresh report.

    For fleet cases the report also carries the serving-plan audit: a
    control plane that lost or double-served a request fails the case
    even when every kernel agrees.
    """
    from .oracle import DifferentialOracle  # lazy: fuzz is imported by oracle users

    oracle = oracle if oracle is not None else DifferentialOracle()
    report = oracle.check(case.system, case.arrivals(), case.params())
    report.plan_violations = case.plan_violations()
    return report


def replay_repro(path: Union[str, Path], oracle=None):
    """Re-run the oracle on a persisted repro; returns the fresh report."""
    case, _ = load_repro(path)
    return replay_case(case, oracle)
