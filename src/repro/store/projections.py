"""Reports as incremental projections over the notification log.

A :class:`Projection` folds notifications into a compact, serializable
state and remembers the newest notification id it has folded (its
*watermark*), both persisted in the store.  ``apply`` reads only
notifications past the watermark — re-rendering a report after a
campaign appended N cells folds N notifications, not the whole history —
and ``rebuild`` re-folds from scratch, so every projection is
oracle-checkable against its own full rebuild
(:func:`verify_store_projections`).  Each report has this one fold; the
batch entry points fold an in-memory record list through it:

* :class:`RecordSummaryProjection` — the campaign summary table
  (``metrics.report.summarize_records``).
* :class:`FleetRollupProjection` — per-shard + global fleet rollups
  (``fleet.rollup_records``).
* :class:`FigureProjection` — the Fig. 5 reductions and Fig. 6 relative
  tails, from compact per-record entries (``Fig5Result.from_records``,
  ``fig6_from_records``).
* :class:`TelemetryCounterProjection` — streaming aggregation counters
  over *event* notifications (the same fold
  ``telemetry.replay.replay_aggregation`` runs over a JSONL event log).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ..telemetry.digest import ResponseDigest
from .notification import (
    KIND_EVENT,
    KIND_RECORD,
    KIND_SNAPSHOT,
    Notification,
    StoreFormatError,
)


class Projection:
    """Base: watermark-tracked incremental fold over the notification log."""

    #: Stable name the state/watermark persist under in the store.
    name = "?"

    def __init__(self) -> None:
        self.watermark = 0
        #: Notifications consumed by the most recent :meth:`apply` — the
        #: incremental contract ("fold only what is newer than the
        #: watermark") is asserted on this counter in tests.
        self.last_fold_count = 0
        self.reset_state()

    # -- state contract (subclasses) -------------------------------------
    def reset_state(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> Dict[str, object]:
        raise NotImplementedError

    def restore_state(self, state: Dict[str, object]) -> None:
        raise NotImplementedError

    def fold_record(self, record) -> None:
        """Fold one :class:`RunRecord` (default: ignore)."""

    def fold_event(self, event) -> None:
        """Fold one typed telemetry event (default: ignore)."""

    def fold_snapshot(self, snapshot) -> None:
        """Fold one :class:`CampaignSnapshot` (default: ignore)."""

    # -- folding ----------------------------------------------------------
    def fold(self, notification: Notification, item: object) -> None:
        """Fold one notification; ``item`` is its decoded payload."""
        if notification.kind == KIND_RECORD:
            self.fold_record(item)
        elif notification.kind == KIND_EVENT:
            self.fold_event(item)
        elif notification.kind == KIND_SNAPSHOT:
            self.fold_snapshot(item)
        self.watermark = notification.id

    def load(self, store) -> "Projection":
        """Restore the persisted watermark + state (no-op if never saved).

        A persisted state of the wrong shape raises
        :class:`StoreFormatError` naming this projection.
        """
        watermark, state = store.get_projection(self.name)
        if state is not None:
            try:
                self.restore_state(state)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise StoreFormatError(
                    f"projection {self.name!r}: persisted state does not "
                    f"decode ({type(exc).__name__}: {exc})"
                ) from exc
            self.watermark = watermark
        return self

    def save(self, store) -> None:
        store.set_projection(self.name, self.watermark, self.state_dict())

    def apply(self, store, save: bool = True) -> int:
        """Fold every notification newer than the watermark.

        Returns (and remembers in ``last_fold_count``) how many
        notifications were consumed; with ``save`` the advanced state
        persists back into the store.
        """
        return _fold_new([self], store, save)[0]

    def rebuild(self, store, save: bool = False) -> int:
        """Drop all state and re-fold the whole log from notification 1."""
        self.watermark = 0
        self.reset_state()
        return self.apply(store, save=save)


# ---------------------------------------------------------------------------
# Shared response pooling
# ---------------------------------------------------------------------------


def fold_responses(digest: ResponseDigest, record) -> None:
    """Fold one record's responses into ``digest``: its raw samples when
    it carries them, else its own digest (nothing for an empty record)."""
    if record.response_times_ms:
        digest.extend(record.response_times_ms)
    else:
        own = record.digest()
        if own is not None:
            digest.merge(own)


def _new_pool() -> Dict[str, object]:
    """Live accumulator of many records' responses.

    ``raw`` extends in place with raw samples while every folded record
    is raw-carrying or empty — a shard that completed nothing constrains
    neither mode, so ``--raw-samples`` runs pool exactly — and the first
    digest-only record flips the group onto the digest path permanently
    (``raw`` becomes None).  ``digest`` accumulates in record order on
    both paths (:func:`fold_responses`).  A fold costs O(the record's
    samples or buckets); only :func:`_group_state` serializes a pool.
    """
    return {"raw": [], "digest": ResponseDigest()}


def _pool_fold(pool: Dict[str, object], record) -> None:
    fold_responses(pool["digest"], record)  # type: ignore[arg-type]
    raw = pool["raw"]
    if raw is not None:
        if record.response_digest and not record.response_times_ms:
            pool["raw"] = None  # digest-only record: exact pooling is off
        else:
            raw.extend(record.response_times_ms)  # type: ignore[attr-defined]


def _pool_stats(pool: Dict[str, object]):
    """The pooled summary object (exact stats or the live digest)."""
    if pool["raw"] is not None:
        from ..metrics.response import ResponseStats  # lazy: avoids a cycle

        stats = ResponseStats()
        stats.extend(pool["raw"])  # type: ignore[arg-type]
        return stats
    return pool["digest"]


def _group_state(group: Dict[str, object]) -> Dict[str, object]:
    """One group's persisted form: its pool as ``{"raw", "digest"}``."""
    pool = group["pool"]
    raw = pool["raw"]  # type: ignore[index]
    return {
        **group,
        "pool": {
            "raw": None if raw is None else list(raw),
            "digest": pool["digest"].to_dict(),  # type: ignore[index]
        },
    }


def _restore_group(state: Dict[str, object]) -> Dict[str, object]:
    """Inverse of :func:`_group_state`: rebuild the live pool."""
    pool = state["pool"]
    raw = pool["raw"]  # type: ignore[index]
    return {
        **state,
        "pool": {
            "raw": None if raw is None else list(raw),
            "digest": ResponseDigest.from_dict(pool["digest"]),  # type: ignore[index]
        },
    }


# ---------------------------------------------------------------------------
# Campaign summary
# ---------------------------------------------------------------------------


class RecordSummaryProjection(Projection):
    """The ``summarize_records`` table as an incremental projection."""

    name = "summary"

    def reset_state(self) -> None:
        self._groups: Dict[str, Dict[str, object]] = {}
        self._scenarios: List[str] = []
        self._failed = 0

    def state_dict(self) -> Dict[str, object]:
        return {
            "groups": {
                key: _group_state(group) for key, group in self._groups.items()
            },
            "scenarios": list(self._scenarios),
            "failed": self._failed,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._groups = {
            key: _restore_group(group)
            for key, group in dict(state["groups"]).items()  # type: ignore[arg-type]
        }
        self._scenarios = list(state["scenarios"])  # type: ignore[arg-type]
        self._failed = int(state["failed"])  # type: ignore[arg-type]

    def fold_record(self, record) -> None:
        if getattr(record, "failed", False):
            self._failed += 1
            return
        if record.scenario not in self._scenarios:
            self._scenarios.append(record.scenario)
        key = json.dumps([record.condition, record.system])
        group = self._groups.get(key)
        if group is None:
            group = self._groups[key] = {
                "runs": 0,
                "makespan_sum": 0.0,
                "pr_count": 0.0,
                "pr_blocked": 0.0,
                "pool": _new_pool(),
            }
        group["runs"] = int(group["runs"]) + 1
        group["makespan_sum"] = float(group["makespan_sum"]) + record.makespan_ms
        group["pr_count"] = float(group["pr_count"]) + record.counters.get(
            "pr_count", 0
        )
        group["pr_blocked"] = float(group["pr_blocked"]) + record.counters.get(
            "pr_blocked", 0
        )
        _pool_fold(group["pool"], record)  # type: ignore[arg-type]

    def rows(self) -> List[List[object]]:
        """The table rows, sorted by (condition, system) like the batch."""
        rows = []
        for key in sorted(self._groups, key=lambda k: tuple(json.loads(k))):
            condition, system = json.loads(key)
            group = self._groups[key]
            pooled = _pool_stats(group["pool"])  # type: ignore[arg-type]
            has_samples = pooled.count > 0
            runs = int(group["runs"])
            rows.append([
                condition,
                system,
                runs,
                pooled.mean() if has_samples else float("nan"),
                pooled.p95() if has_samples else float("nan"),
                pooled.p99() if has_samples else float("nan"),
                float(group["makespan_sum"]) / runs,
                int(float(group["pr_count"])),
                int(float(group["pr_blocked"])),
            ])
        return rows

    def render(self) -> str:
        """The summary table (bit-identical to batch ``summarize_records``)."""
        from ..metrics.report import format_table  # lazy: avoids a cycle

        if not self._groups:
            if self._failed:
                return f"no usable records ({self._failed} failed cell(s))"
            return "no records"
        return format_table(
            ["condition", "system", "runs", "mean (ms)", "p95 (ms)",
             "p99 (ms)", "makespan (ms)", "PRs", "blocked"],
            self.rows(),
            title=(
                f"Campaign records — {', '.join(self._scenarios)}"
                + (
                    f" ({self._failed} failed cell(s) excluded)"
                    if self._failed
                    else ""
                )
            ),
        )


# ---------------------------------------------------------------------------
# Fleet rollups
# ---------------------------------------------------------------------------


class FleetRollupProjection(Projection):
    """Per-shard + global fleet rollup aggregates as a projection."""

    name = "fleet-rollup"

    def reset_state(self) -> None:
        self._shards: Dict[str, Dict[str, object]] = {}
        self._overall = self._new_group()

    @staticmethod
    def _new_group() -> Dict[str, object]:
        return {
            "runs": 0,
            "n_apps": 0,
            "makespan_sum": 0.0,
            "pr_count": 0.0,
            "elapsed_sum": 0.0,
            "fabric_weighted": 0.0,
            "pool": _new_pool(),
        }

    def state_dict(self) -> Dict[str, object]:
        return {
            "shards": {
                key: _group_state(group) for key, group in self._shards.items()
            },
            "overall": _group_state(self._overall),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._shards = {
            key: _restore_group(group)
            for key, group in dict(state["shards"]).items()  # type: ignore[arg-type]
        }
        self._overall = _restore_group(state["overall"])  # type: ignore[arg-type]

    @staticmethod
    def _fold_group(group: Dict[str, object], record) -> None:
        group["runs"] = int(group["runs"]) + 1
        group["n_apps"] = int(group["n_apps"]) + record.n_apps
        group["makespan_sum"] = float(group["makespan_sum"]) + record.makespan_ms
        group["pr_count"] = float(group["pr_count"]) + record.counters.get(
            "pr_count", 0
        )
        elapsed = record.utilization.get("elapsed_ms", 0.0)
        group["elapsed_sum"] = float(group["elapsed_sum"]) + elapsed
        group["fabric_weighted"] = (
            float(group["fabric_weighted"])
            + record.utilization.get("fabric_lut", 0.0) * elapsed
        )
        _pool_fold(group["pool"], record)  # type: ignore[arg-type]

    def fold_record(self, record) -> None:
        key = str(record.shard)
        group = self._shards.get(key)
        if group is None:
            group = self._shards[key] = self._new_group()
        self._fold_group(group, record)
        self._fold_group(self._overall, record)

    def _rollup(self, shard: int, group: Dict[str, object]):
        from ..fleet.fleet import ShardRollup  # lazy: avoids a cycle

        stats = _pool_stats(group["pool"])  # type: ignore[arg-type]
        has_samples = stats.count > 0
        runs = int(group["runs"])
        elapsed = float(group["elapsed_sum"])
        fabric_lut = (
            float(group["fabric_weighted"]) / elapsed if elapsed > 0 else 0.0
        )
        return ShardRollup(
            shard=shard,
            runs=runs,
            n_apps=int(group["n_apps"]),
            mean_ms=stats.mean() if has_samples else 0.0,
            p95_ms=stats.p95() if has_samples else 0.0,
            p99_ms=stats.p99() if has_samples else 0.0,
            mean_makespan_ms=(
                float(group["makespan_sum"]) / runs if runs else 0.0
            ),
            pr_count=int(float(group["pr_count"])),
            fabric_lut=fabric_lut,
        )

    def render_rollups(self) -> Tuple[List, Optional[object]]:
        """``(per_shard, overall)`` :class:`ShardRollup` aggregates."""
        per_shard = [
            self._rollup(int(key), self._shards[key])
            for key in sorted(self._shards, key=int)
        ]
        overall = (
            self._rollup(-1, self._overall)
            if int(self._overall["runs"])
            else None
        )
        return per_shard, overall


# ---------------------------------------------------------------------------
# Figure reductions
# ---------------------------------------------------------------------------


class FigureProjection(Projection):
    """Fig. 5 reductions + Fig. 6 relative tails from per-record entries.

    The one Fig. 5/6 computation: ``Fig5Result.from_records`` and
    ``fig6_from_records`` fold records through it.  State is one compact
    entry per record (identity fields for the pairing validations plus
    the three response scalars the figures consume) — O(#cells), never
    O(#requests) — grouped condition-first then system in
    first-appearance order.  A record's scalars come from its exact raw
    samples when it carries them, else from its digest.
    """

    name = "figures"

    def reset_state(self) -> None:
        self._conditions: Dict[str, Dict[str, List[Dict[str, object]]]] = {}

    def state_dict(self) -> Dict[str, object]:
        return {"conditions": self._conditions}

    def restore_state(self, state: Dict[str, object]) -> None:
        self._conditions = dict(state["conditions"])  # type: ignore[arg-type]

    def fold_record(self, record) -> None:
        systems = self._conditions.setdefault(record.condition, {})
        entries = systems.setdefault(record.system, [])
        if record.response_times_ms:
            from ..metrics.response import ResponseStats  # lazy: avoids a cycle

            responses: object = ResponseStats()
            responses.extend(record.response_times_ms)  # type: ignore[attr-defined]
            mean = record.mean_response_ms()
        else:
            # The stored digest (``RunRecord.mean_response_ms`` reads the
            # same running mean); an empty record has no mean.
            responses = record.response_summary()
            mean = responses.mean() if responses.count else None
        has_samples = responses.count > 0
        entries.append({
            "scenario": record.scenario,
            "seed": record.seed,
            "seq": record.sequence_index,
            "n_apps": record.n_apps,
            "fingerprint": record.fingerprint,
            "mean": mean,
            "p95": responses.percentile(95.0) if has_samples else None,
            "p99": responses.percentile(99.0) if has_samples else None,
        })

    def _matrix(self, label: str) -> Dict[str, List[Dict[str, object]]]:
        """One condition's entries per system, ordered by (seed, sequence)."""
        return {
            system: sorted(entries, key=lambda e: (e["seed"], e["seq"]))
            for system, entries in self._conditions[label].items()
        }

    def _mean_of(self, system: str, entry: Dict[str, object]) -> float:
        if entry["mean"] is None:
            raise ValueError(
                f"record {entry['scenario']}/{system} has no samples"
            )
        return float(entry["mean"])  # type: ignore[arg-type]

    def render_fig5(
        self, baseline: str = "Baseline"
    ) -> Dict[str, Dict[str, float]]:
        """Per condition: the mean over sequences of (baseline mean
        response / system mean response), after refusing records that
        cannot be paired (no baseline, mixed fingerprints, duplicate or
        unmatched cells)."""
        reductions: Dict[str, Dict[str, float]] = {}
        for label in self._conditions:
            grouped = self._matrix(label)
            if baseline not in grouped:
                raise KeyError(
                    f"no {baseline!r} records to normalize against; have: "
                    f"{', '.join(grouped) or 'none'}"
                )
            fingerprints = {
                e["fingerprint"] for runs in grouped.values() for e in runs
            }
            if len(fingerprints) > 1:
                raise ValueError(
                    f"records mix {len(fingerprints)} parameter fingerprints "
                    f"({', '.join(sorted(fingerprints))}); refusing to "
                    "aggregate (was the results file appended to by "
                    "incompatible campaigns?)"
                )
            for system, runs in grouped.items():
                keys = [(e["seed"], e["seq"]) for e in runs]
                if len(set(keys)) != len(keys):
                    raise ValueError(
                        f"{system} has duplicate (seed, sequence) cells; "
                        "pairing would be ambiguous — aggregate one campaign "
                        "at a time"
                    )
            baseline_runs = grouped[baseline]
            column: Dict[str, float] = {}
            for system, runs in grouped.items():
                if len(runs) != len(baseline_runs):
                    raise ValueError(
                        f"{system} has {len(runs)} records but {baseline} "
                        f"has {len(baseline_runs)}; cannot pair sequences"
                    )
                ratios = []
                for base, run in zip(baseline_runs, runs):
                    mismatched = [
                        name
                        for name, field in (
                            ("seed", "seed"),
                            ("sequence_index", "seq"),
                            ("n_apps", "n_apps"),
                            ("fingerprint", "fingerprint"),
                        )
                        if base[field] != run[field]
                    ]
                    if mismatched:
                        raise ValueError(
                            f"cannot pair {system} with {baseline}: records "
                            f"disagree on {', '.join(mismatched)} (was the "
                            "results file appended to by incompatible "
                            "campaigns?)"
                        )
                    ratios.append(
                        self._mean_of(baseline, base) / self._mean_of(system, run)
                    )
                column[system] = sum(ratios) / len(ratios)
            reductions[label] = column
        return reductions

    def render_fig6(
        self, baseline: str = "Baseline"
    ) -> Dict[str, Dict[str, float]]:
        """Relative P95/P99 tails (``"<condition>-95"`` / ``"-99"``): per
        tail condition, the mean over sequences of system percentile /
        baseline percentile.  Records that cannot form Fig. 5 fail the
        same way here; records without a tail condition raise."""
        from ..experiments.fig6 import TAIL_CONDITIONS  # lazy: avoids a cycle

        self.render_fig5(baseline=baseline)
        labels = [c.label for c in TAIL_CONDITIONS if c.label in self._conditions]
        if not labels:
            raise ValueError(
                "Fig. 6 needs records of a tail condition ("
                + ", ".join(c.label for c in TAIL_CONDITIONS)
                + f"); have: {', '.join(self._conditions) or 'none'}"
            )
        relative_tails: Dict[str, Dict[str, float]] = {}
        for label in labels:
            matrix = self._matrix(label)
            baseline_runs = matrix[baseline]
            for key, tag in (("p95", "95"), ("p99", "99")):
                column: Dict[str, float] = {}
                for system, runs in matrix.items():
                    ratios = []
                    for base, run in zip(baseline_runs, runs):
                        if run[key] is None or base[key] is None:
                            raise ValueError("no response samples recorded")
                        ratios.append(float(run[key]) / float(base[key]))  # type: ignore[arg-type]
                    column[system] = sum(ratios) / len(ratios)
                relative_tails[f"{label}-{tag}"] = column
        return relative_tails


# ---------------------------------------------------------------------------
# Telemetry counters over event notifications
# ---------------------------------------------------------------------------


class TelemetryCounterProjection(Projection):
    """Streaming-aggregation counters over *event* notifications.

    The same fold :func:`repro.telemetry.replay.replay_aggregation` runs
    over a JSONL event log, applied to events that flowed through the
    notification log instead — so one store answers "what happened"
    without re-reading the per-cell event files.
    """

    name = "telemetry"

    def reset_state(self) -> None:
        from ..telemetry.sinks import StreamingAggregationSink

        self._sink = StreamingAggregationSink()

    def state_dict(self) -> Dict[str, object]:
        sink = self._sink
        state = {
            slot: getattr(sink, slot)
            for slot in sink.__slots__
            if slot not in ("kinds", "digest")
        }
        state["digest"] = sink.digest.to_dict()
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        self.reset_state()
        for slot, value in state.items():
            if slot == "digest":
                self._sink.digest = ResponseDigest.from_dict(value)  # type: ignore[arg-type]
            else:
                setattr(self._sink, slot, value)

    def fold_event(self, event) -> None:
        self._sink.handle(event)

    def counters(self) -> Dict[str, float]:
        return self._sink.counters()

    @property
    def digest(self) -> ResponseDigest:
        return self._sink.digest


# ---------------------------------------------------------------------------
# The projection registry + the rebuild oracle
# ---------------------------------------------------------------------------


def default_projections() -> List[Projection]:
    """Fresh instances of every built-in projection."""
    return [
        RecordSummaryProjection(),
        FleetRollupProjection(),
        FigureProjection(),
        TelemetryCounterProjection(),
    ]


def _decode(notification: Notification) -> object:
    """The object the fold hooks take for ``notification`` (None: unknown kind)."""
    if notification.kind == KIND_RECORD:
        from ..campaign.results import RunRecord  # lazy: avoids a cycle

        return RunRecord.from_dict(notification.payload)
    if notification.kind == KIND_EVENT:
        from ..telemetry.events import event_from_dict

        return event_from_dict(notification.payload)
    if notification.kind == KIND_SNAPSHOT:
        from .snapshot import CampaignSnapshot

        return CampaignSnapshot.from_dict(notification.payload)
    return None


def _fold_new(projections: List[Projection], store, save: bool) -> List[int]:
    """Fold the notifications past each projection's own watermark.

    The log is selected once, from the oldest watermark, and each
    notification decoded once however many projections fold it: the
    fold hooks only read what they are given.  Returns the fold counts
    in ``projections`` order; with ``save`` each advanced state persists.
    """
    if not projections:
        return []
    since = [projection.watermark for projection in projections]
    fresh = store.select(start=min(since) + 1)
    for notification in fresh:
        item = _decode(notification)
        for projection, watermark in zip(projections, since):
            if notification.id > watermark:
                projection.fold(notification, item)
    counts = []
    for projection, watermark in zip(projections, since):
        count = sum(1 for notification in fresh if notification.id > watermark)
        projection.last_fold_count = count
        if save and count:
            projection.save(store)
        counts.append(count)
    return counts


def update_projections(
    store, projections: Optional[List[Projection]] = None
) -> Dict[str, int]:
    """Catch projections up to the log head and save the advanced ones.

    Given ``projections`` fold as they are, from their in-memory
    watermarks: a durable campaign loads the built-ins once and passes
    the same objects after every chunk.  With None, the built-in
    projections restore their persisted state first.  Each folds only
    the notifications newer than its watermark.  Returns
    ``{name: folded}``.
    """
    if projections is None:
        projections = [
            projection.load(store) for projection in default_projections()
        ]
    counts = _fold_new(projections, store, save=True)
    return {projection.name: count for projection, count in zip(projections, counts)}


def verify_store_projections(store) -> List[str]:
    """Oracle-check every projection against its own full rebuild.

    For each built-in projection: restore the persisted incremental
    state, catch it up to the log head, rebuild a sibling from
    notification 1, and demand identical watermark and state.  Returns
    human-readable divergence strings (empty = all equal).
    """
    incrementals = [projection.load(store) for projection in default_projections()]
    fulls = default_projections()
    _fold_new(incrementals + fulls, store, save=False)
    divergences: List[str] = []
    for incremental, full in zip(incrementals, fulls):
        if incremental.watermark != full.watermark:
            divergences.append(
                f"{full.name}: incremental watermark "
                f"{incremental.watermark} != rebuilt {full.watermark}"
            )
        if incremental.state_dict() != full.state_dict():
            divergences.append(
                f"{full.name}: incremental state diverges from a "
                "full rebuild (stale or corrupted persisted projection?)"
            )
    return divergences


__all__ = [
    "FigureProjection",
    "FleetRollupProjection",
    "Projection",
    "RecordSummaryProjection",
    "TelemetryCounterProjection",
    "default_projections",
    "update_projections",
    "verify_store_projections",
]
