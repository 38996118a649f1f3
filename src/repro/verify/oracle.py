"""The differential oracle: one scenario, two kernels, zero divergence.

:func:`instrumented_run` executes a (system, arrivals, parameters) cell on
a chosen kernel with full observability attached — structured tracing, the
time-weighted utilization tracker, and the invariant monitor — and
condenses the run into a :class:`KernelFingerprint`.  The fingerprint
captures everything model code can observe: the canonical trace, response
records with finish times, scheduler counters, PCAP statistics and the
utilization aggregates.

:class:`DifferentialOracle` runs the same cell on the reference kernel and
on each *candidate* kernel (by default just the optimized heap kernel; the
CLI sweeps heap and wheel together) and diffs the fingerprints field by
field.  Floats are compared *exactly*: the kernels are required to be
bit-identical, not just statistically close — any reordering of same-time
events shows up as a trace divergence long before it shifts an aggregate.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..campaign.backend import DEFAULT_HORIZON_MS, DrainError, simulate_run
from ..campaign.results import COUNTER_FIELDS
from ..config import SystemParameters
from ..metrics.utilization import UtilizationTracker
from ..sim import Engine, Tracer
from ..telemetry import FingerprintSink, TelemetryBus
from ..workloads.generator import Arrival
from .invariants import InvariantMonitor
from .reference import ReferenceEngine, resolve_kernel


def trace_lines(tracer: Tracer) -> List[str]:
    """Canonical one-line-per-record rendering of a trace.

    Matches the format the PR-2 goldens pinned (time to 9 decimals,
    category, payload JSON with sorted keys) so fingerprints and goldens
    stay directly comparable.
    """
    return [
        f"{record.time:.9f}|{record.category}|"
        f"{json.dumps(record.payload, sort_keys=True, default=str)}"
        for record in tracer.records
    ]


@dataclass
class KernelFingerprint:
    """Everything observable about one instrumented simulation run."""

    kernel: str
    system: str
    drained: bool
    error: Optional[str]
    completions: int
    makespan_ms: float
    counters: Dict[str, float]
    response_times_ms: List[float]
    finish_times_ms: List[float]
    trace_len: int
    trace_sha256: str
    occupied_utilization: Tuple[float, float]
    fabric_utilization: Tuple[float, float]
    pcap_loads: int
    pcap_retries: int
    #: Typed telemetry stream condensation (the fingerprint sink): event
    #: count and SHA-256 over the canonical event lines.  Any divergence
    #: in emission order or payload between kernels surfaces here even if
    #: no other aggregate moves.
    telemetry_events: int = 0
    telemetry_sha256: str = ""
    violations: List[str] = field(default_factory=list)
    #: Full canonical trace, kept for diff context (compared via the sha).
    trace: List[str] = field(default_factory=list, repr=False)

    #: Fields diffed between kernels ("trace" is covered by its digest,
    #: "violations" are reported per-kernel rather than diffed).
    COMPARED = (
        "drained",
        "error",
        "completions",
        "makespan_ms",
        "counters",
        "response_times_ms",
        "finish_times_ms",
        "trace_len",
        "trace_sha256",
        "occupied_utilization",
        "fabric_utilization",
        "pcap_loads",
        "pcap_retries",
        "telemetry_events",
        "telemetry_sha256",
    )

    def comparable(self) -> Dict[str, object]:
        return {name: getattr(self, name) for name in self.COMPARED}


def instrumented_run(
    system: str,
    arrivals: Sequence[Arrival],
    params: Optional[SystemParameters] = None,
    kernel: str = "optimized",
    engine_factory: Optional[Callable[[], Engine]] = None,
    horizon_ms: float = DEFAULT_HORIZON_MS,
) -> KernelFingerprint:
    """Run one cell on ``kernel`` with full observability attached.

    ``engine_factory`` overrides the registry lookup (tests inject
    deliberately broken kernels this way); ``kernel`` then only labels the
    fingerprint.  Simulation failures — drain timeouts, model crashes —
    are captured into the fingerprint instead of raised, so the oracle can
    compare *how* both kernels failed.
    """
    factory = engine_factory if engine_factory is not None else resolve_kernel(kernel)
    tracer = Tracer()
    # The telemetry spine carries the oracle's response/finish plumbing:
    # the fingerprint sink consumes the typed event stream the model
    # emits, replacing direct reads of ``SchedulerStats.responses``.
    telemetry = TelemetryBus()
    fingerprint_sink = FingerprintSink()
    telemetry.attach(fingerprint_sink)
    refs: Dict[str, object] = {}

    def capture(engine, board, scheduler) -> None:
        refs["engine"] = engine
        refs["board"] = board
        refs["scheduler"] = scheduler
        refs["tracker"] = UtilizationTracker(board)
        refs["monitor"] = InvariantMonitor(
            engine, board, scheduler, tracker=refs["tracker"]
        )

    error: Optional[str] = None
    drained = True
    makespan = 0.0
    try:
        outcome = simulate_run(
            system,
            arrivals,
            params,
            horizon_ms=horizon_ms,
            engine_factory=factory,
            tracer=tracer,
            instruments=(capture,),
            telemetry=telemetry,
        )
        makespan = outcome.makespan_ms
    except DrainError as exc:
        drained = False
        error = (
            f"DrainError: {exc.completions}/{exc.expected} drained; "
            f"undrained: {', '.join(exc.undrained)}"
        )
    except Exception as exc:  # noqa: BLE001 - the failure *is* the result
        if "scheduler" not in refs:
            # The simulation never got assembled (unknown system, invalid
            # parameters): that is an operator error, not a kernel
            # outcome — there is nothing to fingerprint, so propagate.
            raise
        drained = False
        error = f"{type(exc).__name__}: {exc}"

    scheduler = refs["scheduler"]
    tracker: UtilizationTracker = refs["tracker"]  # type: ignore[assignment]
    monitor: InvariantMonitor = refs["monitor"]  # type: ignore[assignment]
    board = refs["board"]
    stats = scheduler.stats
    if error is not None:
        makespan = max(
            fingerprint_sink.finish_times_ms,
            default=refs["engine"].now,  # type: ignore[union-attr]
        )
    monitor.finalize(drained=drained and error is None)
    lines = trace_lines(tracer)
    occupied = tracker.mean_occupied_utilization()
    fabric = tracker.mean_fabric_utilization()
    return KernelFingerprint(
        kernel=kernel,
        system=system,
        drained=drained,
        error=error,
        completions=fingerprint_sink.completions,
        makespan_ms=makespan,
        counters={name: getattr(stats, name) for name in COUNTER_FIELDS},
        response_times_ms=list(fingerprint_sink.response_times_ms),
        finish_times_ms=list(fingerprint_sink.finish_times_ms),
        trace_len=len(lines),
        trace_sha256=hashlib.sha256("\n".join(lines).encode()).hexdigest(),
        occupied_utilization=(occupied.lut, occupied.ff),
        fabric_utilization=(fabric.lut, fabric.ff),
        pcap_loads=board.pcap.loads,  # type: ignore[union-attr]
        pcap_retries=board.pcap.verification_retries,  # type: ignore[union-attr]
        telemetry_events=fingerprint_sink.event_count,
        telemetry_sha256=fingerprint_sink.hexdigest(),
        violations=[str(violation) for violation in monitor.violations],
        trace=lines,
    )


@dataclass(frozen=True)
class FieldDivergence:
    """One fingerprint field on which the kernels disagree."""

    name: str
    reference: object
    optimized: object

    def __str__(self) -> str:
        return f"{self.name}: reference={self.reference!r} optimized={self.optimized!r}"


@dataclass
class DivergenceReport:
    """Outcome of one oracle comparison."""

    system: str
    reference: KernelFingerprint
    optimized: KernelFingerprint
    #: Every candidate fingerprint compared against the reference.  In the
    #: classic two-way comparison this is just ``[optimized]``; the N-way
    #: sweep appends one entry per kernel (``optimized`` stays bound to
    #: the first candidate for compatibility).
    candidates: List[KernelFingerprint] = field(default_factory=list)
    fields: List[FieldDivergence] = field(default_factory=list)
    #: ``(index, reference_line, optimized_line)`` of the first trace
    #: record the kernels disagree on (a missing line reads as None).
    first_trace_divergence: Optional[Tuple[int, Optional[str], Optional[str]]] = None
    #: No-lost-requests findings from the serving-plan audit of a fleet
    #: case (``check_serving_plan``).  Kernel-independent: a broken
    #: control plane fails the oracle even when every kernel agrees.
    plan_violations: List[str] = field(default_factory=list)

    @property
    def diverged(self) -> bool:
        return bool(self.fields)

    @property
    def violations(self) -> List[str]:
        """Invariant violations from any kernel (tagged by kernel)."""
        out = []
        fingerprints = [self.reference]
        fingerprints.extend(self.candidates if self.candidates else [self.optimized])
        for fingerprint in fingerprints:
            out.extend(f"{fingerprint.kernel}: {v}" for v in fingerprint.violations)
        out.extend(f"serving-plan: {v}" for v in self.plan_violations)
        return out

    @property
    def ok(self) -> bool:
        return not self.diverged and not self.violations

    def summary(self) -> str:
        if self.ok:
            return (
                f"{self.system}: kernels agree "
                f"({self.optimized.trace_len} trace records, "
                f"{self.optimized.completions} completions)"
            )
        lines = [f"{self.system}: DIVERGENCE"]
        lines.extend(f"  {divergence}" for divergence in self.fields)
        if self.first_trace_divergence is not None:
            index, ref_line, opt_line = self.first_trace_divergence
            lines.append(f"  first trace divergence at record {index}:")
            lines.append(f"    reference: {ref_line}")
            lines.append(f"    optimized: {opt_line}")
        for violation in self.violations:
            lines.append(f"  invariant: {violation}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready condensation (persisted inside repro files)."""
        payload: Dict[str, object] = {
            "system": self.system,
            "fields": [
                {
                    "name": divergence.name,
                    "reference": repr(divergence.reference),
                    "optimized": repr(divergence.optimized),
                }
                for divergence in self.fields
            ],
            "violations": self.violations,
        }
        if self.first_trace_divergence is not None:
            index, ref_line, opt_line = self.first_trace_divergence
            payload["first_trace_divergence"] = {
                "index": index,
                "reference": ref_line,
                "optimized": opt_line,
            }
        return payload


def _first_trace_divergence(
    reference: KernelFingerprint, optimized: KernelFingerprint
) -> Optional[Tuple[int, Optional[str], Optional[str]]]:
    for index, (ref_line, opt_line) in enumerate(
        zip(reference.trace, optimized.trace)
    ):
        if ref_line != opt_line:
            return (index, ref_line, opt_line)
    shorter = min(len(reference.trace), len(optimized.trace))
    if len(reference.trace) != len(optimized.trace):
        ref_extra = reference.trace[shorter] if len(reference.trace) > shorter else None
        opt_extra = optimized.trace[shorter] if len(optimized.trace) > shorter else None
        return (shorter, ref_extra, opt_extra)
    return None


class DifferentialOracle:
    """Run one cell on every kernel and demand bit-identical outcomes.

    The reference runs once per cell; each *candidate* kernel is diffed
    against that single reference fingerprint.  ``kernels`` names the
    candidates (resolved through the registry); the default is the classic
    two-way heap-vs-reference comparison, and the verify CLI passes
    ``("wheel", "optimized")`` for the three-way sweep (wheel first: the
    production default is the candidate-of-record, so ``optimized`` —
    and with it a report's headline numbers — binds to it).  With more than
    one candidate, divergence field names are tagged ``kernel:field`` so a
    failing sweep says which backend broke.

    The factories are injectable so tests can swap a deliberately broken
    kernel in for either side and assert the oracle catches it;
    ``optimized_factory`` overrides the registry lookup for the
    ``optimized`` candidate only.
    """

    def __init__(
        self,
        optimized_factory: Optional[Callable[[], Engine]] = None,
        reference_factory: Optional[Callable[[], Engine]] = None,
        horizon_ms: float = DEFAULT_HORIZON_MS,
        kernels: Sequence[str] = ("optimized",),
    ) -> None:
        if not kernels:
            raise ValueError("at least one candidate kernel is required")
        self.optimized_factory = optimized_factory or Engine
        self.reference_factory = reference_factory or ReferenceEngine
        self.horizon_ms = horizon_ms
        self.kernels = tuple(kernels)

    def _candidate_factory(self, name: str) -> Callable[[], Engine]:
        if name == "optimized":
            return self.optimized_factory
        return resolve_kernel(name)

    def check(
        self,
        system: str,
        arrivals: Sequence[Arrival],
        params: Optional[SystemParameters] = None,
    ) -> DivergenceReport:
        reference = instrumented_run(
            system,
            arrivals,
            params,
            kernel="reference",
            engine_factory=self.reference_factory,
            horizon_ms=self.horizon_ms,
        )
        candidates = [
            instrumented_run(
                system,
                arrivals,
                params,
                kernel=name,
                engine_factory=self._candidate_factory(name),
                horizon_ms=self.horizon_ms,
            )
            for name in self.kernels
        ]
        report = DivergenceReport(
            system=system,
            reference=reference,
            optimized=candidates[0],
            candidates=candidates,
        )
        ref_fields = reference.comparable()
        for candidate in candidates:
            cand_fields = candidate.comparable()
            tag = "" if len(candidates) == 1 else f"{candidate.kernel}:"
            for name in KernelFingerprint.COMPARED:
                if ref_fields[name] != cand_fields[name]:
                    report.fields.append(
                        FieldDivergence(
                            f"{tag}{name}", ref_fields[name], cand_fields[name]
                        )
                    )
        if report.diverged:
            for candidate in candidates:
                divergence = _first_trace_divergence(reference, candidate)
                if divergence is not None:
                    report.first_trace_divergence = divergence
                    break
        return report


def check_store(store_or_path) -> List[str]:
    """Audit a durable store's integrity and projections.

    Three layers of checks, each reported as a human-readable finding
    string (empty list = clean):

    * **log shape** — notification ids must be dense and strictly
      increasing from 1 (the recorder contract; a gap means a torn or
      hand-edited log), and every record and marker payload must decode;
    * **backed markers** — every checkpoint marker's ``covered_id`` must
      lie below its own id, and at least ``completed`` distinct cell keys
      must have a successful record at or before ``covered_id``;
    * **projection oracle** — every built-in projection's persisted
      incremental state must equal a from-scratch rebuild of the whole
      log (:func:`repro.store.projections.verify_store_projections`).
    """
    from ..campaign.results import RunRecord
    from ..store import KIND_RECORD, KIND_SNAPSHOT, as_campaign_store, cell_key
    from ..store.projections import verify_store_projections
    from ..store.snapshot import CampaignSnapshot

    store = as_campaign_store(store_or_path)
    findings: List[str] = []

    notifications = store.select()
    expected = 1
    for notification in notifications:
        if notification.id != expected:
            findings.append(
                f"notification log gap: expected id {expected}, "
                f"found {notification.id}"
            )
            expected = notification.id
        expected += 1

    # One pass in id order.  ``first_ids`` holds, ascending, the id of
    # each distinct cell key's first successful record, so the keys a
    # marker may count are those at or before its ``covered_id``.
    seen: set = set()
    first_ids: List[int] = []
    for notification in notifications:
        if notification.kind == KIND_RECORD:
            record = RunRecord.from_dict(notification.payload)
            key = cell_key(record)
            if not record.failed and key not in seen:
                seen.add(key)
                first_ids.append(notification.id)
        elif notification.kind == KIND_SNAPSHOT:
            marker = CampaignSnapshot.from_dict(notification.payload)
            where = f"snapshot (notification {notification.id})"
            if marker.covered_id >= notification.id:
                findings.append(
                    f"{where} covers id {marker.covered_id}, which is not "
                    "below its own"
                )
            backed = bisect.bisect_right(first_ids, marker.covered_id)
            if backed < marker.completed:
                findings.append(
                    f"{where} claims {marker.completed} completed cell(s), "
                    f"but only {backed} have a successful record at or "
                    f"before id {marker.covered_id}"
                )

    findings.extend(verify_store_projections(store))
    return findings
