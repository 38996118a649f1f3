"""Event-log replay: re-derive reports from the stream alone.

The JSONL event log written by :class:`~repro.telemetry.sinks
.JsonlEventLogSink` is the run's source of truth — these helpers read it
back into typed events and re-run the streaming aggregation over it, so
``repro replay <events.jsonl>`` reproduces a run's response statistics,
makespan and counters without touching the simulator.  Re-derivation is
bit-identical: the aggregation sink folds replayed completion events in
the same order with the same floats the live run emitted.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, TextIO, Tuple, Union

from .events import EVENT_SCHEMA, TelemetryEvent, event_from_dict
from .sinks import StreamingAggregationSink


def iter_jsonl_payloads(
    handle: TextIO,
    path: Union[str, Path],
    first_line_no: int = 1,
    what: str = "record",
    on_skip: Optional[Callable[[int], None]] = None,
) -> Iterator[Tuple[int, dict]]:
    """Stream ``(line_no, parsed_json)`` pairs from a JSONL handle.

    The shared crash-tolerant reader behind event logs and the campaign
    results store: lines stream one at a time (O(1) memory), a malformed
    *interior* line raises with its location, and a malformed *final*
    line — the only line an interrupted writer can truncate — is skipped
    with a warning.  Lines are parsed with one line of lookahead so
    "final" is known without reading the file twice.

    ``on_skip`` takes over skip reporting: when given, it is called with
    the skipped line number and no warning is emitted here — the caller
    owns deduplication and accounting (see ``ResultsStore.load``).
    """
    pending: Tuple[int, str] = (0, "")
    for line_no, line in enumerate(handle, start=first_line_no):
        line = line.strip()
        if not line:
            continue
        if pending[1]:
            prev_no, prev_line = pending
            try:
                payload = json.loads(prev_line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{prev_no}: malformed {what} ({exc})"
                ) from None
            yield prev_no, payload
        pending = (line_no, line)
    if pending[1]:
        last_no, last_line = pending
        try:
            payload = json.loads(last_line)
        except json.JSONDecodeError:
            if on_skip is not None:
                on_skip(last_no)
            else:
                warnings.warn(
                    f"{path}:{last_no}: truncated trailing {what} skipped "
                    "(interrupted writer?)",
                    stacklevel=2,
                )
            return
        yield last_no, payload


def sniff_event_log(path: Union[str, Path]) -> bool:
    """True iff ``path`` starts with a telemetry event-log header."""
    try:
        with Path(path).open("r", encoding="utf-8") as handle:
            first = handle.readline()
        return json.loads(first).get("schema") == EVENT_SCHEMA
    except (OSError, ValueError):
        return False


def read_event_log(
    path: Union[str, Path],
) -> Tuple[Dict[str, object], Iterator[TelemetryEvent]]:
    """The log's header metadata plus a lazy event iterator.

    Malformed interior lines raise with their location; a truncated
    *final* line (a crashed writer) is skipped — the log is append-only,
    so everything before it is intact.
    """
    path = Path(path)
    handle = path.open("r", encoding="utf-8")
    header_line = handle.readline()
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError:
        handle.close()
        raise ValueError(f"{path}:1: not a telemetry event log") from None
    if header.get("schema") != EVENT_SCHEMA:
        handle.close()
        raise ValueError(
            f"{path}: schema {header.get('schema')!r} is not {EVENT_SCHEMA!r}"
        )

    def events() -> Iterator[TelemetryEvent]:
        with handle:
            for line_no, payload in iter_jsonl_payloads(
                handle, path, first_line_no=2, what="telemetry event"
            ):
                try:
                    yield event_from_dict(payload)
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from None

    return dict(header.get("meta") or {}), events()


def load_events(path: Union[str, Path]) -> List[TelemetryEvent]:
    """All events of one log, in stream order."""
    _, events = read_event_log(path)
    return list(events)


def replay_aggregation(path: Union[str, Path]) -> Tuple[Dict[str, object], StreamingAggregationSink]:
    """Re-run the streaming aggregation over a persisted event log."""
    meta, events = read_event_log(path)
    sink = StreamingAggregationSink()
    for event in events:
        sink.handle(event)
    return meta, sink


def replay_notifications(store) -> StreamingAggregationSink:
    """Re-run the streaming aggregation over a store's *event* notifications.

    The notification-log counterpart of :func:`replay_aggregation`:
    events that flowed through a durable event store (via
    :class:`~repro.telemetry.sinks.RecorderEventSink` or
    ``repro store ingest``) fold back into a fresh aggregation sink in
    global notification order — bit-identical to the live aggregation,
    by the same argument as JSONL replay.
    """
    from ..store.notification import KIND_EVENT

    sink = StreamingAggregationSink()
    for notification in store.select():
        if notification.kind == KIND_EVENT:
            sink.handle(event_from_dict(notification.payload))
    return sink


def summarize_event_log(path: Union[str, Path]) -> Dict[str, object]:
    """A JSON-ready summary of one event log (the CLI's data model)."""
    meta, sink = replay_aggregation(path)
    digest = sink.digest
    summary: Dict[str, object] = {
        "path": str(path),
        "meta": meta,
        "counters": sink.counters(),
    }
    if digest.count:
        summary["response"] = {
            "count": digest.count,
            "mean_ms": digest.mean(),
            "p50_ms": digest.percentile(50.0),
            "p95_ms": digest.p95(),
            "p99_ms": digest.p99(),
            "min_ms": digest.min_ms,
            "max_ms": digest.max_ms,
        }
        summary["response_digest"] = digest.to_dict()
    return summary


__all__ = [
    "load_events",
    "read_event_log",
    "replay_aggregation",
    "replay_notifications",
    "sniff_event_log",
    "summarize_event_log",
]
