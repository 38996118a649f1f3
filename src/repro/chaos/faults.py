"""Deterministic fault injection: typed fault specs and schedules.

A :class:`FaultSchedule` is the full failure story of one fleet run — a
time-ordered tuple of :class:`FaultSpec` events (shard kill, recovery
window, capacity degradation, latency skew, graceful drain).  Schedules
are *data*, never behaviour: the control plane
(:mod:`repro.fleet.control`) folds them into its sim-clock event queue,
so the same ``(scenario, seed, schedule)`` triple yields bit-identical
serving plans in every process, on every kernel.

Two ways to obtain a schedule:

* **declared** — committed scenarios carry explicit ``FaultSpec`` tuples
  (:data:`repro.fleet.scenarios`), so a failure story is reviewable in
  the scenario definition;
* **sampled** — :func:`sample_fault_schedule` derives a schedule from a
  string-seeded RNG, a pure function of ``(seed, n_shards, span)``; the
  fault-aware fuzzer uses it to sweep failure schedules the same way it
  sweeps workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

#: Recognized fault kinds, in schema order.
FAULT_KINDS = ("kill", "recover", "degrade", "slow", "drain")

#: Fraction of the arrival span faults are sampled inside (keeps a
#: sampled kill from landing after the stream already drained).
_SAMPLE_WINDOW = (0.1, 0.85)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault, applied to one shard at one sim time.

    ``kind`` semantics:

    * ``kill`` — the shard dies abruptly at ``at_ms``; in-flight requests
      are rerouted by the supervisor.
    * ``recover`` — the shard becomes *recoverable* at ``at_ms``; the
      supervisor's next restart probe at or after this time succeeds.
    * ``degrade`` — capacity factor drops to ``factor`` for
      ``duration_ms`` (slower estimated service, smaller contribution to
      the shed-threshold capacity sum).
    * ``slow`` — estimated service time is multiplied by ``factor`` for
      ``duration_ms`` (latency skew without a capacity loss).
    * ``drain`` — graceful removal: no new admissions, in-flight requests
      finish, then the shard goes DEAD (recoverable via ``recover``).
    """

    kind: str
    at_ms: float
    shard: int
    factor: float = 1.0
    duration_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"available: {', '.join(FAULT_KINDS)}"
            )
        if self.at_ms < 0:
            raise ValueError(f"fault time {self.at_ms} must be >= 0")
        if self.shard < 0:
            raise ValueError(f"fault shard {self.shard} must be >= 0")
        if self.kind == "degrade" and not 0.0 < self.factor <= 1.0:
            raise ValueError(
                f"degrade factor {self.factor} outside (0, 1]"
            )
        if self.kind == "slow" and self.factor < 1.0:
            raise ValueError(f"slow factor {self.factor} must be >= 1")
        if self.kind in ("degrade", "slow") and self.duration_ms <= 0:
            raise ValueError(
                f"{self.kind} fault needs a positive duration_ms"
            )

    # ------------------------------------------------------------------
    def to_tuple(self) -> Tuple[str, float, int, float, float]:
        """Flat tuple form (the fuzz-case / repro-file representation)."""
        return (self.kind, self.at_ms, self.shard, self.factor, self.duration_ms)

    @classmethod
    def from_tuple(cls, payload: Sequence[object]) -> "FaultSpec":
        if len(payload) != 5:
            raise ValueError(
                f"fault tuple needs 5 fields (kind, at_ms, shard, factor, "
                f"duration_ms), got {len(payload)}"
            )
        kind, at_ms, shard, factor, duration_ms = payload
        return cls(
            kind=str(kind), at_ms=float(at_ms), shard=int(shard),
            factor=float(factor), duration_ms=float(duration_ms),
        )

    def describe(self) -> str:
        extra = ""
        if self.kind == "degrade":
            extra = f" x{self.factor:g} for {self.duration_ms:g}ms"
        elif self.kind == "slow":
            extra = f" x{self.factor:g} for {self.duration_ms:g}ms"
        return f"{self.kind}@{self.at_ms:g}ms shard{self.shard}{extra}"


class FaultSchedule:
    """An immutable, time-ordered collection of :class:`FaultSpec` s.

    Hashable (usable as an ``lru_cache`` key next to the fleet workload)
    and validating: events sort by ``(at_ms, insertion order)``, and every
    ``recover`` must name a shard some earlier ``kill``/``drain`` touched —
    a recovery for a shard that never goes down is a schedule typo.
    """

    __slots__ = ("faults",)

    def __init__(self, faults: Iterable[FaultSpec] = ()) -> None:
        specs = []
        for fault in faults:
            if not isinstance(fault, FaultSpec):
                fault = FaultSpec.from_tuple(fault)
            specs.append(fault)
        specs.sort(key=lambda f: f.at_ms)
        object.__setattr__(self, "faults", tuple(specs))
        downable = {f.shard for f in self.faults if f.kind in ("kill", "drain")}
        for fault in self.faults:
            if fault.kind == "recover" and fault.shard not in downable:
                raise ValueError(
                    f"recover for shard {fault.shard} but no kill/drain "
                    "ever touches it"
                )

    def __setattr__(self, name, value):  # pragma: no cover - immutability
        raise AttributeError("FaultSchedule is immutable")

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultSchedule) and other.faults == self.faults

    def __hash__(self) -> int:
        return hash(self.faults)

    def __repr__(self) -> str:
        return f"FaultSchedule({', '.join(f.describe() for f in self.faults)})"

    # ------------------------------------------------------------------
    def recover_times(self) -> Dict[int, List[float]]:
        """Per-shard recoverable-at times, ascending (supervisor input)."""
        out: Dict[int, List[float]] = {}
        for fault in self.faults:
            if fault.kind == "recover":
                out.setdefault(fault.shard, []).append(fault.at_ms)
        return out

    def to_tuples(self) -> Tuple[Tuple[str, float, int, float, float], ...]:
        return tuple(fault.to_tuple() for fault in self.faults)

    @classmethod
    def from_tuples(
        cls, payload: Iterable[Sequence[object]]
    ) -> "FaultSchedule":
        return cls(FaultSpec.from_tuple(item) for item in payload)

    def validate_for(self, n_shards: int) -> None:
        """Reject faults naming shards outside ``[0, n_shards)``."""
        for fault in self.faults:
            if fault.shard >= n_shards:
                raise ValueError(
                    f"fault {fault.describe()} names shard {fault.shard} "
                    f"outside [0, {n_shards})"
                )


def sample_fault_schedule(
    seed: object,
    n_shards: int,
    span_ms: float,
    max_faults: int = 3,
) -> FaultSchedule:
    """A random schedule, pure in ``(seed, n_shards, span_ms, max_faults)``.

    Faults land inside the middle of the arrival span; every ``kill`` or
    ``drain`` independently gets a recovery with probability 0.7 (so both
    the restart path and the permanently-dead path stay exercised).  At
    most one fault sequence per shard keeps sampled schedules readable.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    rng = random.Random(f"chaos/{seed}/{n_shards}/{max_faults}")
    lo, hi = _SAMPLE_WINDOW
    count = rng.randint(1, max(1, max_faults))
    shards = list(range(n_shards))
    rng.shuffle(shards)
    specs: List[FaultSpec] = []
    for shard in shards[:count]:
        at_ms = round(span_ms * rng.uniform(lo, hi), 3)
        kind = rng.choice(("kill", "kill", "drain", "degrade", "slow"))
        if kind in ("kill", "drain"):
            specs.append(FaultSpec(kind=kind, at_ms=at_ms, shard=shard))
            if rng.random() < 0.7:
                recover_at = round(
                    at_ms + span_ms * rng.uniform(0.05, 0.3), 3
                )
                specs.append(
                    FaultSpec(kind="recover", at_ms=recover_at, shard=shard)
                )
        elif kind == "degrade":
            specs.append(FaultSpec(
                kind=kind, at_ms=at_ms, shard=shard,
                factor=round(rng.uniform(0.2, 0.8), 3),
                duration_ms=round(span_ms * rng.uniform(0.1, 0.4), 3),
            ))
        else:  # slow
            specs.append(FaultSpec(
                kind=kind, at_ms=at_ms, shard=shard,
                factor=round(rng.uniform(1.5, 4.0), 3),
                duration_ms=round(span_ms * rng.uniform(0.1, 0.4), 3),
            ))
    return FaultSchedule(specs)


__all__ = [
    "FAULT_KINDS",
    "FaultSchedule",
    "FaultSpec",
    "sample_fault_schedule",
]
