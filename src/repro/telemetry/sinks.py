"""Built-in telemetry sinks: event log, streaming aggregation, fingerprint.

* :class:`JsonlEventLogSink` — the replayable source of truth: an
  append-only JSONL file (header line + one event per line) from which
  any report can be re-derived without re-simulating
  (:mod:`repro.telemetry.replay`).
* :class:`StreamingAggregationSink` — bounded-memory online aggregation:
  a mergeable :class:`~repro.telemetry.digest.ResponseDigest` plus O(1)
  counters, regardless of how many requests flow through.
* :class:`FingerprintSink` — feeds the verify oracle: exact response and
  finish times plus a running SHA-256 over the canonical event stream, so
  two kernels must emit bit-identical telemetry to compare equal.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from .bus import TelemetrySink
from .digest import ResponseDigest
from .events import EVENT_SCHEMA, TelemetryEvent, canonical_line


class JsonlEventLogSink(TelemetrySink):
    """Append-only JSONL event log (the replayable source of truth).

    The first line is a schema header carrying caller metadata (scenario,
    system, seed...); every further line is one event.  ``close`` flushes
    and fsyncs, so a completed run's log survives a crash of whatever
    comes after it.
    """

    kinds = None  # the log is the source of truth: every kind

    def __init__(
        self,
        path: Union[str, Path],
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.events_written = 0
        self._handle = self.path.open("w", encoding="utf-8")
        header = {"schema": EVENT_SCHEMA, "meta": dict(meta or {})}
        self._handle.write(json.dumps(header, sort_keys=True) + "\n")

    def handle(self, event: TelemetryEvent) -> None:
        self._handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if self._handle.closed:
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._handle.close()


class StreamingAggregationSink(TelemetrySink):
    """Online aggregation with O(1) memory.

    Maintains a response-time :class:`ResponseDigest` plus plain counters
    for every event kind, so a cell serving millions of requests needs no
    per-sample storage.  ``kinds`` restricts the subscription — e.g.
    ``("completion",)`` for digest-only collection with zero launch-path
    overhead.
    """

    __slots__ = (
        "kinds", "digest", "admissions", "arrivals", "launches",
        "launch_blocked", "launch_wait_ms", "slot_transitions", "pr_loads",
        "preemptions", "migrations", "completions", "makespan_ms",
        "events_seen", "sheds", "reroutes", "shard_downs", "shard_ups",
    )

    def __init__(self, kinds=None) -> None:
        self.kinds = tuple(kinds) if kinds is not None else None
        self.digest = ResponseDigest()
        self.admissions = 0
        self.arrivals = 0
        self.launches = 0
        self.launch_blocked = 0
        self.launch_wait_ms = 0.0
        self.slot_transitions = 0
        self.pr_loads = 0
        self.preemptions = 0
        self.migrations = 0
        self.completions = 0
        self.makespan_ms = 0.0
        self.events_seen = 0
        self.sheds = 0
        self.reroutes = 0
        self.shard_downs = 0
        self.shard_ups = 0

    def on_launch(
        self, time_ms: float, app_id: int, wait_ms: float, blocked: bool
    ) -> None:
        """Allocation-free launch fast path (see ``TelemetrySink``)."""
        self.events_seen += 1
        self.launches += 1
        self.launch_wait_ms += wait_ms
        if blocked:
            self.launch_blocked += 1

    def handle(self, event: TelemetryEvent) -> None:
        self.events_seen += 1
        kind = event.kind
        if kind == "launch":
            self.launches += 1
            self.launch_wait_ms += event.wait_ms  # type: ignore[attr-defined]
            if event.blocked:  # type: ignore[attr-defined]
                self.launch_blocked += 1
        elif kind == "completion":
            self.completions += 1
            self.digest.add(event.response_ms)  # type: ignore[attr-defined]
            if event.time_ms > self.makespan_ms:
                self.makespan_ms = event.time_ms
        elif kind == "slot":
            self.slot_transitions += 1
            if event.state == "loaded":  # type: ignore[attr-defined]
                self.pr_loads += 1
        elif kind == "arrival":
            self.arrivals += 1
        elif kind == "admission":
            self.admissions += 1
        elif kind == "preemption":
            self.preemptions += 1
        elif kind == "migration":
            self.migrations += 1
        elif kind == "shed":
            self.sheds += 1
        elif kind == "reroute":
            self.reroutes += 1
        elif kind == "shard-down":
            self.shard_downs += 1
        elif kind == "shard-up":
            self.shard_ups += 1

    def counters(self) -> Dict[str, float]:
        """The aggregate counters as one flat dict (CLI/JSON surface)."""
        return {
            "admissions": self.admissions,
            "arrivals": self.arrivals,
            "launches": self.launches,
            "launch_blocked": self.launch_blocked,
            "launch_wait_ms": self.launch_wait_ms,
            "slot_transitions": self.slot_transitions,
            "pr_loads": self.pr_loads,
            "preemptions": self.preemptions,
            "migrations": self.migrations,
            "completions": self.completions,
            "sheds": self.sheds,
            "reroutes": self.reroutes,
            "shard_downs": self.shard_downs,
            "shard_ups": self.shard_ups,
            "makespan_ms": self.makespan_ms,
            "events": self.events_seen,
        }


class FingerprintSink(TelemetrySink):
    """Condense the stream into what the differential oracle compares.

    Collects the exact per-completion response/finish times (replacing the
    oracle's bespoke ``SchedulerStats.responses`` plumbing) and hashes the
    canonical rendering of *every* event, so any reordering or value drift
    between kernels — even in events the oracle does not otherwise
    inspect — surfaces as a fingerprint divergence.
    """

    kinds = None

    def __init__(self) -> None:
        self.completions = 0
        self.response_times_ms: List[float] = []
        self.finish_times_ms: List[float] = []
        self.event_count = 0
        self._sha = hashlib.sha256()

    def handle(self, event: TelemetryEvent) -> None:
        self.event_count += 1
        self._sha.update(canonical_line(event).encode("utf-8"))
        self._sha.update(b"\n")
        if event.kind == "completion":
            self.completions += 1
            self.response_times_ms.append(event.response_ms)  # type: ignore[attr-defined]
            self.finish_times_ms.append(event.time_ms)

    def hexdigest(self) -> str:
        """SHA-256 of the canonical event stream so far."""
        return self._sha.hexdigest()


__all__ = [
    "FingerprintSink",
    "JsonlEventLogSink",
    "StreamingAggregationSink",
]
