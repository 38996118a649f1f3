"""The supervised fleet control plane: actors, supervision, serving plans.

This module is the fleet's one admission planner: it turns an arrival
stream and a :class:`~repro.chaos.FaultSchedule` into a *serving plan*,
a pure function of ``(scenario, seed)`` computed by a deterministic
sim-clock event loop in which shards can die, drain, degrade, recover —
and every admitted request is provably served exactly once, rerouted,
or explicitly shed.  An empty schedule is the fault-free case: every
shard stays SERVING and each arrival is routed once, in its batch.

Design
------
* **Actors with an explicit transition table.**  Each shard is a
  :class:`ShardActor` in one of five named states::

      WARMING -> SERVING -> DRAINING -> DEAD -> RECOVERING -> WARMING
                    `------------------^

  Transitions outside :data:`TRANSITIONS` raise — an illegal state walk
  is a control-plane bug, never silent drift.  Every transition is
  recorded in the actor's history with its sim time and reason.

* **Supervision with capped deterministic backoff.**  When a shard goes
  DEAD the :class:`FleetSupervisor` schedules restart probes at
  ``RESTART_BACKOFF_MS`` doubling up to ``BACKOFF_CAP_MS``, at most
  ``MAX_RESTART_ATTEMPTS`` times — all in *sim time*, so the restart
  story replays bit-identically.  A probe succeeds once the fault
  schedule marks the shard recoverable; the shard then walks
  DEAD -> RECOVERING -> WARMING -> SERVING and a ``shard-up`` event
  carries the exact downtime.

* **Admission-time virtual service.**  The control plane models each
  request's residency as ``estimated_work_ms x slow / capacity`` from
  admission — consistent with the front-end's route-on-estimates design
  (routing never sees live simulation telemetry).  A kill mid-residency
  reroutes the request to a live shard (``REROUTE_DELAY_MS`` later); a
  drain lets residents finish and then downs the shard.  The *final*
  per-shard arrival streams are ordinary time-sorted streams, so shards
  still simulate as independent campaign cells on any kernel, serial or
  fanned out, with bit-identical results.

* **Degraded-mode shedding.**  While the live capacity fraction (sum of
  SERVING shards' capacity factors / total shards) sits strictly below
  ``SHED_CAPACITY_THRESHOLD``, fresh admissions are refused with a typed
  ``shed`` event.  Reroutes of already-admitted requests bypass the
  threshold — an accepted request is only ever shed when *zero* shards
  are live.

* **A ledger, not hope.**  Every input arrival gets exactly one
  :class:`RequestRecord` disposition.  The verify layer
  (:func:`repro.verify.invariants.check_serving_plan`) audits the ledger
  against the streams and histories: no lost requests, no serving on a
  dead shard, no shedding outside a degraded window.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from ..chaos import FaultSchedule, FaultSpec
from ..sim import SeededStreams
from ..telemetry.events import (
    RequestReroutedEvent,
    RequestShedEvent,
    ShardAdmissionEvent,
    ShardDownEvent,
    ShardRecoveredEvent,
    TelemetryEvent,
)
from ..workloads.generator import Arrival
from .routing import ADMISSION_BATCH, estimated_work_ms, get_policy

# ---------------------------------------------------------------------------
# Control-plane constants (all sim-time milliseconds)
# ---------------------------------------------------------------------------

#: Fresh admissions are shed while live capacity fraction < this.
SHED_CAPACITY_THRESHOLD = 0.5
#: First restart probe fires this long after a shard dies.
RESTART_BACKOFF_MS = 2000.0
#: Probe backoff doubles up to this cap.
BACKOFF_CAP_MS = 16000.0
#: A dead shard is probed at most this many times per death.
MAX_RESTART_ATTEMPTS = 8
#: DEAD -> RECOVERING -> WARMING takes this long (process restart).
RESTART_MS = 500.0
#: WARMING -> SERVING takes this long (bitstream/cache warmup).
WARMUP_MS = 1000.0
#: In-flight requests land on their new shard this long after a kill.
REROUTE_DELAY_MS = 1.0

# ---------------------------------------------------------------------------
# Shard states and the transition table
# ---------------------------------------------------------------------------

WARMING = "warming"
SERVING = "serving"
DRAINING = "draining"
DEAD = "dead"
RECOVERING = "recovering"

#: All named shard states, in lifecycle order.
SHARD_STATES = (WARMING, SERVING, DRAINING, DEAD, RECOVERING)

#: The legal state walk.  ``transition`` raises on anything else.
TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    WARMING: (SERVING, DEAD),
    SERVING: (DRAINING, DEAD),
    DRAINING: (DEAD,),
    DEAD: (RECOVERING,),
    RECOVERING: (WARMING, DEAD),
}

# Event-queue phases: at one sim instant, virtual completions happen
# before faults, faults before supervision timers, timers before fresh
# arrivals.  (A request completing exactly at its shard's kill time was
# served; an arrival exactly at a kill time sees the shard already dead.)
_PHASE_COMPLETION = 0
_PHASE_FAULT = 1
_PHASE_TIMER = 2
_PHASE_ARRIVAL = 3


class ShardActor:
    """One shard's failure-domain state machine.

    Owns the named state, capacity/latency factors, the set of resident
    (virtually in-flight) requests, and the full transition history.  The
    ``epoch`` counter invalidates stale supervision timers: every death
    bumps it, and a timer scheduled under an older epoch is dropped.
    """

    __slots__ = (
        "shard", "state", "capacity_factor", "slow_factor", "attempts",
        "down_since_ms", "epoch", "in_flight", "history",
        "_recover_times", "_recover_ptr",
    )

    def __init__(self, shard: int, recover_times: Sequence[float] = ()) -> None:
        self.shard = shard
        self.state = SERVING
        self.capacity_factor = 1.0
        self.slow_factor = 1.0
        self.attempts = 0
        self.down_since_ms = -1.0
        self.epoch = 0
        #: request seq -> admission generation (resident requests).
        self.in_flight: Dict[int, int] = {}
        #: (time_ms, state, reason) — boots straight into SERVING.
        self.history: List[Tuple[float, str, str]] = [(0.0, SERVING, "boot")]
        self._recover_times = tuple(sorted(recover_times))
        self._recover_ptr = 0

    def transition(self, to_state: str, time_ms: float, reason: str = "") -> None:
        """Walk to ``to_state``; raises on a move outside the table."""
        if to_state not in TRANSITIONS[self.state]:
            raise ValueError(
                f"shard {self.shard}: illegal transition "
                f"{self.state} -> {to_state} at t={time_ms:g} ({reason or 'no reason'}); "
                f"allowed: {', '.join(TRANSITIONS[self.state])}"
            )
        self.state = to_state
        self.history.append((time_ms, to_state, reason))

    def state_at(self, time_ms: float) -> str:
        """The shard's state at sim time ``time_ms`` (audit helper)."""
        state = self.history[0][1]
        for at_ms, to_state, _ in self.history:
            if at_ms > time_ms:
                break
            state = to_state
        return state

    def next_recoverable(self, after_ms: float) -> Optional[float]:
        """The first unconsumed recover time strictly after ``after_ms``."""
        ptr = self._recover_ptr
        while ptr < len(self._recover_times):
            if self._recover_times[ptr] > after_ms:
                return self._recover_times[ptr]
            ptr += 1
        return None

    def consume_recoverable(self, after_ms: float) -> None:
        while self._recover_ptr < len(self._recover_times):
            recover_at = self._recover_times[self._recover_ptr]
            self._recover_ptr += 1
            if recover_at > after_ms:
                return


@dataclass
class RequestRecord:
    """One admitted arrival's ledger entry (exactly-once disposition)."""

    seq: int
    app: str
    batch: int
    submitted_ms: float
    #: ``served`` or ``shed`` — every input arrival ends as exactly one.
    disposition: str = ""
    #: Final serving shard (-1 when shed).
    shard: int = -1
    #: Admission time on the final shard (the stream timestamp).
    time_ms: float = -1.0
    #: Shards this request was bumped off, in order.
    rerouted_from: Tuple[int, ...] = ()
    shed_reason: str = ""
    #: Admission generation; stale virtual completions are dropped.
    gen: int = 0


@dataclass
class ServingPlan:
    """The supervised dispatch plan plus its full audit trail."""

    n_shards: int
    policy: str
    seed: int
    faults: FaultSchedule
    #: Final time-sorted per-shard arrival streams (campaign-cell input).
    streams: List[List[Arrival]] = field(default_factory=list)
    #: One record per input arrival, in submission order.
    ledger: Tuple[RequestRecord, ...] = ()
    #: Every control-plane event, in sim-time order.
    events: List[TelemetryEvent] = field(default_factory=list)
    #: Per-shard transition histories ((time_ms, state, reason) lists).
    histories: Dict[int, List[Tuple[float, str, str]]] = field(default_factory=dict)
    #: Closed/open intervals when capacity sat below the shed threshold.
    shed_windows: List[Tuple[float, Optional[float]]] = field(default_factory=list)
    shed_threshold: float = SHED_CAPACITY_THRESHOLD

    @property
    def served_count(self) -> int:
        return sum(1 for r in self.ledger if r.disposition == "served")

    @property
    def shed_count(self) -> int:
        return sum(1 for r in self.ledger if r.disposition == "shed")

    @property
    def reroute_count(self) -> int:
        return sum(len(r.rerouted_from) for r in self.ledger)

    def summary(self) -> Dict[str, object]:
        """Flat counters for CLI/JSON surfaces."""
        return {
            "policy": self.policy,
            "seed": self.seed,
            "n_shards": self.n_shards,
            "faults": len(self.faults),
            "served": self.served_count,
            "shed": self.shed_count,
            "reroutes": self.reroute_count,
            "shed_windows": len(self.shed_windows),
        }


class FleetSupervisor:
    """Deterministic admission-time control loop over the shard actors.

    One instance plans one ``(arrival stream, fault schedule)`` pair.  The
    loop merges virtual completions, faults, supervision timers and fresh
    arrivals into a single sim-clock priority queue with fixed intra-tick
    phase ordering and an insertion-order tiebreak, so the plan is a pure
    function of its inputs.
    """

    def __init__(
        self,
        n_shards: int,
        policy: str,
        seed: int,
        faults: FaultSchedule,
        shed_threshold: float = SHED_CAPACITY_THRESHOLD,
        admission_batch: int = ADMISSION_BATCH,
    ) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        faults.validate_for(n_shards)
        self.n_shards = n_shards
        self.policy = policy
        self.seed = seed
        self.faults = faults
        self.shed_threshold = shed_threshold
        self.admission_batch = admission_batch
        # The routing RNG family is a pure function of the seed, so the
        # plan reproduces in every process.
        streams = SeededStreams(seed).spawn("fleet-router")
        self.router = get_policy(policy, n_shards, streams)
        recover_times = faults.recover_times()
        self.actors = [
            ShardActor(shard, recover_times.get(shard, ()))
            for shard in range(n_shards)
        ]
        self.loads = [0.0] * n_shards
        self._events: List[TelemetryEvent] = []
        self._windows: List[Tuple[float, Optional[float]]] = []
        self._window_start: Optional[float] = None
        self._last_time = 0.0

    # -- helpers -------------------------------------------------------

    def _live(self) -> Tuple[int, ...]:
        return tuple(
            actor.shard for actor in self.actors if actor.state == SERVING
        )

    def _route(
        self, arrival: Arrival, loads: Tuple[float, ...], live: Tuple[int, ...]
    ) -> int:
        """The policy's choice, refused unless it is a serving shard (a
        registered policy is outside code)."""
        shard = self.router.route(arrival, loads, live)
        if shard not in live:
            raise ValueError(
                f"policy {self.policy!r} routed to shard {shard}, not one "
                f"of the serving shards {list(live)}"
            )
        return shard

    def _capacity_fraction(self) -> float:
        return sum(
            actor.capacity_factor
            for actor in self.actors
            if actor.state == SERVING
        ) / self.n_shards

    def _update_shed_window(self, time_ms: float) -> None:
        below = self._capacity_fraction() < self.shed_threshold
        if below and self._window_start is None:
            self._window_start = time_ms
        elif not below and self._window_start is not None:
            self._windows.append((self._window_start, time_ms))
            self._window_start = None

    # -- the loop ------------------------------------------------------

    def plan(self, arrivals: Sequence[Arrival]) -> ServingPlan:
        """Run the control loop over ``arrivals``; returns the plan."""
        arrivals = list(arrivals)
        records = [
            RequestRecord(
                seq=index, app=arrival.app_name, batch=arrival.batch_size,
                submitted_ms=arrival.time_ms,
            )
            for index, arrival in enumerate(arrivals)
        ]
        heap: List[Tuple[float, int, int, Tuple]] = []
        tick = itertools.count()
        for index, arrival in enumerate(arrivals):
            heappush(
                heap,
                (arrival.time_ms, _PHASE_ARRIVAL, next(tick), ("arrival", index)),
            )
        for fault in self.faults:
            heappush(
                heap, (fault.at_ms, _PHASE_FAULT, next(tick), ("fault", fault))
            )
        admitted = 0
        snapshot: Tuple[float, ...] = tuple(self.loads)

        def admit(record: RequestRecord, shard: int, time_ms: float) -> None:
            actor = self.actors[shard]
            arrival = arrivals[record.seq]
            record.disposition = "served"
            record.shard = shard
            record.time_ms = time_ms
            record.gen += 1
            actor.in_flight[record.seq] = record.gen
            self.loads[shard] += estimated_work_ms(arrival)
            duration = (
                estimated_work_ms(arrival)
                * actor.slow_factor
                / actor.capacity_factor
            )
            heappush(heap, (
                time_ms + duration, _PHASE_COMPLETION, next(tick),
                ("complete", (shard, record.seq, record.gen)),
            ))

        def shed(record: RequestRecord, time_ms: float, reason: str) -> None:
            if record.shard >= 0:
                record.rerouted_from = record.rerouted_from + (record.shard,)
            record.disposition = "shed"
            record.shard = -1
            record.time_ms = time_ms
            record.shed_reason = reason
            self._events.append(RequestShedEvent(time_ms, record.app, record.batch, reason))

        def mark_dead(actor: ShardActor, time_ms: float, reason: str) -> None:
            actor.transition(DEAD, time_ms, reason)
            actor.down_since_ms = time_ms
            actor.epoch += 1
            actor.attempts = 0
            self._events.append(ShardDownEvent(time_ms, actor.shard, reason))
            self._update_shed_window(time_ms)
            # Always probe: a schedule may leave the shard permanently
            # dead, in which case the probes exhaust deterministically.
            heappush(heap, (
                time_ms + RESTART_BACKOFF_MS, _PHASE_TIMER, next(tick),
                ("probe", (actor.shard, actor.epoch)),
            ))

        while heap:
            time_ms, phase, _, item = heappop(heap)
            self._last_time = time_ms
            kind, payload = item

            if kind == "complete":
                shard, seq, gen = payload
                actor = self.actors[shard]
                if actor.in_flight.get(seq) != gen:
                    continue  # rerouted or re-admitted elsewhere
                del actor.in_flight[seq]
                if actor.state == DRAINING and not actor.in_flight:
                    mark_dead(actor, time_ms, "drain")

            elif kind == "fault":
                fault: FaultSpec = payload
                actor = self.actors[fault.shard]
                if fault.kind == "kill":
                    if actor.state == DEAD:
                        continue
                    residents = sorted(actor.in_flight)
                    actor.in_flight.clear()
                    mark_dead(actor, time_ms, "kill")
                    for seq in residents:
                        heappush(heap, (
                            time_ms + REROUTE_DELAY_MS, _PHASE_TIMER,
                            next(tick), ("reroute", seq),
                        ))
                elif fault.kind == "drain":
                    if actor.state != SERVING:
                        continue
                    actor.transition(DRAINING, time_ms, "drain")
                    self._update_shed_window(time_ms)
                    if not actor.in_flight:
                        mark_dead(actor, time_ms, "drain")
                elif fault.kind == "degrade":
                    actor.capacity_factor = fault.factor
                    self._update_shed_window(time_ms)
                    heappush(heap, (
                        time_ms + fault.duration_ms, _PHASE_FAULT,
                        next(tick), ("degrade-end", fault.shard),
                    ))
                elif fault.kind == "slow":
                    actor.slow_factor = fault.factor
                    heappush(heap, (
                        time_ms + fault.duration_ms, _PHASE_FAULT,
                        next(tick), ("slow-end", fault.shard),
                    ))
                # "recover" is data for the probes, not a queue action.

            elif kind == "degrade-end":
                self.actors[payload].capacity_factor = 1.0
                self._update_shed_window(time_ms)

            elif kind == "slow-end":
                self.actors[payload].slow_factor = 1.0

            elif kind == "probe":
                shard, epoch = payload
                actor = self.actors[shard]
                if actor.epoch != epoch or actor.state != DEAD:
                    continue
                recover_at = actor.next_recoverable(actor.down_since_ms)
                if recover_at is not None and time_ms >= recover_at:
                    actor.consume_recoverable(actor.down_since_ms)
                    actor.transition(RECOVERING, time_ms, "probe-ok")
                    heappush(heap, (
                        time_ms + RESTART_MS, _PHASE_TIMER, next(tick),
                        ("restart-done", (shard, actor.epoch)),
                    ))
                else:
                    actor.attempts += 1
                    if actor.attempts < MAX_RESTART_ATTEMPTS:
                        backoff = min(
                            RESTART_BACKOFF_MS * (2.0 ** actor.attempts),
                            BACKOFF_CAP_MS,
                        )
                        heappush(heap, (
                            time_ms + backoff, _PHASE_TIMER, next(tick),
                            ("probe", (shard, epoch)),
                        ))

            elif kind == "restart-done":
                shard, epoch = payload
                actor = self.actors[shard]
                if actor.epoch != epoch or actor.state != RECOVERING:
                    continue
                actor.transition(WARMING, time_ms, "restart-done")
                heappush(heap, (
                    time_ms + WARMUP_MS, _PHASE_TIMER, next(tick),
                    ("warmup-done", (shard, epoch)),
                ))

            elif kind == "warmup-done":
                shard, epoch = payload
                actor = self.actors[shard]
                if actor.epoch != epoch or actor.state != WARMING:
                    continue
                actor.transition(SERVING, time_ms, "warmup-done")
                self._events.append(ShardRecoveredEvent(
                    time_ms, shard, time_ms - actor.down_since_ms
                ))
                self._update_shed_window(time_ms)

            elif kind == "reroute":
                record = records[payload]
                live = self._live()
                if not live:
                    # The only way an *admitted* request is ever refused.
                    shed(record, time_ms, "no-live-shards")
                    continue
                from_shard = record.shard
                record.rerouted_from = record.rerouted_from + (from_shard,)
                # Reroutes consult the live cumulative loads (the
                # supervisor reacts to failures with fresh accounting)
                # and never consume a batch slot or the shed budget.
                to_shard = self._route(
                    arrivals[record.seq], tuple(self.loads), live
                )
                admit(record, to_shard, time_ms)
                self._events.append(RequestReroutedEvent(
                    time_ms, record.app, record.batch, from_shard, to_shard
                ))

            elif kind == "arrival":
                record = records[payload]
                arrival = arrivals[payload]
                live = self._live()
                if not live:
                    shed(record, time_ms, "no-live-shards")
                    continue
                if self._capacity_fraction() < self.shed_threshold:
                    shed(record, time_ms, "degraded-capacity")
                    continue
                # Fresh admissions see the load snapshot taken at the
                # start of their admission batch.
                if admitted % self.admission_batch == 0:
                    snapshot = tuple(self.loads)
                shard = self._route(arrival, snapshot, live)
                admit(record, shard, time_ms)
                admitted += 1
                self._events.append(ShardAdmissionEvent(
                    arrival.time_ms, arrival.app_name,
                    arrival.batch_size, shard,
                ))

            else:  # pragma: no cover - closed dispatch
                raise AssertionError(f"unknown control event {kind!r}")

        if self._window_start is not None:
            self._windows.append((self._window_start, None))
            self._window_start = None

        for record in records:
            if record.disposition not in ("served", "shed"):
                raise AssertionError(
                    f"request {record.seq} finished the loop without a "
                    f"disposition (control-plane bug)"
                )

        streams: List[List[Arrival]] = [[] for _ in range(self.n_shards)]
        for record in sorted(
            (r for r in records if r.disposition == "served"),
            key=lambda r: (r.time_ms, r.seq),
        ):
            streams[record.shard].append(
                Arrival(
                    app_name=record.app, batch_size=record.batch,
                    time_ms=record.time_ms,
                )
            )
        return ServingPlan(
            n_shards=self.n_shards,
            policy=self.policy,
            seed=self.seed,
            faults=self.faults,
            streams=streams,
            ledger=tuple(records),
            events=self._events,
            histories={
                actor.shard: list(actor.history) for actor in self.actors
            },
            shed_windows=list(self._windows),
            shed_threshold=self.shed_threshold,
        )


def supervised_partition(
    arrivals: Sequence[Arrival],
    n_shards: int,
    policy: str,
    seed: int,
    faults: FaultSchedule,
    shed_threshold: float = SHED_CAPACITY_THRESHOLD,
    admission_batch: int = ADMISSION_BATCH,
) -> ServingPlan:
    """The fleet dispatch plan: arrivals routed to per-shard streams.

    Pure and deterministic in every argument — recomputing the plan in a
    worker process yields the identical split.  The plan's ``events``
    hold every control-plane event in order (one admission event per
    admitted arrival, timestamped with the arrival time).
    """
    supervisor = FleetSupervisor(
        n_shards=n_shards, policy=policy, seed=seed, faults=faults,
        shed_threshold=shed_threshold, admission_batch=admission_batch,
    )
    return supervisor.plan(arrivals)


__all__ = [
    "BACKOFF_CAP_MS",
    "DEAD",
    "DRAINING",
    "FleetSupervisor",
    "MAX_RESTART_ATTEMPTS",
    "RECOVERING",
    "REROUTE_DELAY_MS",
    "RESTART_BACKOFF_MS",
    "RESTART_MS",
    "RequestRecord",
    "SERVING",
    "SHARD_STATES",
    "SHED_CAPACITY_THRESHOLD",
    "ServingPlan",
    "ShardActor",
    "TRANSITIONS",
    "WARMING",
    "WARMUP_MS",
    "supervised_partition",
]
