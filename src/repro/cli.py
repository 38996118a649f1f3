"""Command-line interface: ``python -m repro <command> [options]``.

Regenerates any of the paper's figures, runs registered campaigns over a
parallel backend, and replays persisted results:

.. code-block:: sh

    python -m repro fig5 --sequences 3 --jobs 4 --out results/fig5.jsonl
    python -m repro fig6
    python -m repro fig7
    python -m repro fig8 --apps 80 --seed 2 --jobs 2
    python -m repro campaign list
    python -m repro campaign run fig5-standard --jobs 4
    python -m repro fleet list
    python -m repro fleet run fleet-diurnal --shards 4 --jobs 4
    python -m repro replay results/fig5.jsonl --figure fig5
    python -m repro campaign run smoke --events-dir results/events
    python -m repro replay results/events/smoke-FCFS-seed1-seq0.jsonl
    python -m repro replay results/repros/repro-smoke-3.json
    python -m repro verify --fuzz 50 --seed 0
    python -m repro list
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .campaign import (
    CampaignRunner,
    ResultsStore,
    RunRecord,
    get_scenario,
    load_records,
    scenario_names,
)
from .store import DEFAULT_SNAPSHOT_EVERY, StoreFormatError, resolve_store
from .experiments import (
    PAPER_SWITCH_OVERHEAD_MS,
    Fig5Result,
    fig6_from_records,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
)
from .fleet import Fleet, fleet_scenario_names, get_fleet_scenario, policy_names
from .experiments.runner import SYSTEMS
from .metrics.plots import bar_chart, trace_plot
from .metrics.report import format_table, summarize_records
from .telemetry import (
    EVENT_TYPES,
    sniff_event_log,
    summarize_event_log,
)
from .verify.cli import add_verify_arguments, run_verify_command
from .verify.fuzz import parse_repro_payload, replay_case, sniff_repro_file


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VersaSlot (DAC 2025) reproduction: regenerate the paper's figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parallel_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--jobs", type=int, default=1,
            help="worker processes for the campaign backend (default: 1, serial)",
        )
        p.add_argument(
            "--out", type=str, default=None, metavar="PATH",
            help="append per-run records to PATH: a SQLite store for a "
                 ".sqlite/.db path, else a plain JSONL results file "
                 "(replayable via `replay`)",
        )

    def add_campaign_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cell-timeout", type=float, default=None, metavar="S",
            help="with --jobs N: wall-clock bound per campaign cell in "
                 "seconds (> 0); cells travel to the workers in batches, and "
                 "a batch of k cells may take k*S; a hung worker is killed, "
                 "each cell of its batch retried once in isolation with S "
                 "of its own, and a persistent failure is surfaced as a "
                 "failure record instead of hanging the campaign",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="skip cells the store already holds a successful record "
                 "for (continue an interrupted run; the resumed results are "
                 "bit-identical to an uninterrupted run); needs a SQLite "
                 "--out, default results/<name>.sqlite",
        )
        p.add_argument(
            "--snapshot-every", type=int, default=None, metavar="N",
            help="append records to the SQLite store in chunks of N cells, "
                 "each followed by a checkpoint marker (default: off; "
                 f"--resume implies {DEFAULT_SNAPSHOT_EVERY})",
        )

    fig5 = sub.add_parser("fig5", help="relative response-time reduction")
    fig5.add_argument("--sequences", type=int, default=2)
    fig5.add_argument("--apps", type=int, default=20)
    fig5.add_argument("--seed", type=int, default=1)
    add_parallel_options(fig5)

    fig6 = sub.add_parser("fig6", help="tail latency (P95/P99)")
    fig6.add_argument("--sequences", type=int, default=2)
    fig6.add_argument("--seed", type=int, default=1)
    add_parallel_options(fig6)

    sub.add_parser("fig7", help="3-in-1 utilization gains")

    fig8 = sub.add_parser("fig8", help="cross-board switching")
    fig8.add_argument("--apps", type=int, default=60)
    fig8.add_argument("--seed", type=int, default=1)
    add_parallel_options(fig8)

    campaign = sub.add_parser("campaign", help="run registered scenario campaigns")
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    campaign_list = campaign_sub.add_parser("list", help="list registered scenarios")
    campaign_list.add_argument("--json", action="store_true",
                               help="machine-readable JSON instead of a table")
    run = campaign_sub.add_parser("run", help="run one registered scenario")
    run.add_argument("scenario", help="registered scenario name")
    run.add_argument("--sequences", type=int, default=None,
                     help="override the scenario's sequence count")
    run.add_argument("--apps", type=int, default=None,
                     help="override the scenario's per-sequence app count")
    run.add_argument("--seed", type=int, default=None,
                     help="replace the scenario's seed set with one seed")
    run.add_argument("--raw-samples", action="store_true",
                     help="persist raw per-request response samples on each "
                          "record (default: compact bounded-memory digest)")
    run.add_argument("--events-dir", type=str, default=None, metavar="DIR",
                     help="write each cell's typed telemetry event stream as "
                          "a replayable JSONL log under DIR")
    add_parallel_options(run)
    add_campaign_options(run)

    fleet = sub.add_parser(
        "fleet", help="run sharded multi-cluster fleet scenarios"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_list = fleet_sub.add_parser("list", help="list registered fleet scenarios")
    fleet_list.add_argument("--json", action="store_true",
                            help="machine-readable JSON instead of a table")
    fleet_run = fleet_sub.add_parser("run", help="run one fleet scenario")
    fleet_run.add_argument("scenario", help="registered fleet scenario name")
    fleet_run.add_argument("--shards", type=int, default=None,
                           help="override the scenario's shard count")
    fleet_run.add_argument("--apps", type=int, default=None,
                           help="override the global arrival-stream size")
    fleet_run.add_argument("--seed", type=int, default=None,
                           help="replace the scenario's seed set with one seed")
    fleet_run.add_argument("--raw-samples", action="store_true",
                           help="persist raw per-request samples per shard "
                                "record (default: mergeable digests)")
    fleet_run.add_argument("--events-dir", type=str, default=None, metavar="DIR",
                           help="write admission + per-shard telemetry event "
                                "logs under DIR")
    add_parallel_options(fleet_run)
    add_campaign_options(fleet_run)

    store = sub.add_parser(
        "store",
        help="inspect and maintain durable stores (record logs, "
             "checkpoint markers, projections)",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_inspect = store_sub.add_parser(
        "inspect", help="summarize a store's notification log and progress"
    )
    store_inspect.add_argument("path", help="SQLite store")
    store_inspect.add_argument("--json", action="store_true",
                               help="machine-readable JSON instead of a table")
    store_verify = store_sub.add_parser(
        "verify",
        help="audit a store: log shape, checkpoint markers backed by "
             "records, and every projection against a full rebuild",
    )
    store_verify.add_argument("path", help="SQLite store")
    store_export = store_sub.add_parser(
        "export",
        help="copy the records of a store or results file into a new path "
             "(format conversion: jsonl <-> sqlite)",
    )
    store_export.add_argument(
        "path", help="source SQLite store or JSONL results file"
    )
    store_export.add_argument(
        "dest", help="new or empty destination: SQLite for a .sqlite/.db "
                     "path, else a JSONL results file"
    )

    telemetry = sub.add_parser(
        "telemetry",
        help="describe the typed telemetry events (replay a log with "
             "`replay`)",
    )
    telemetry_sub = telemetry.add_subparsers(dest="telemetry_command", required=True)
    schema = telemetry_sub.add_parser(
        "schema", help="list the typed event kinds and their fields"
    )
    schema.add_argument("--json", action="store_true",
                        help="machine-readable JSON instead of a table")

    verify = sub.add_parser(
        "verify",
        help="differential oracle: run scenarios on the reference and the "
             "optimized kernel and demand bit-identical outcomes",
    )
    add_verify_arguments(verify)

    replay = sub.add_parser(
        "replay",
        help="re-render persisted records, or replay a telemetry event log "
             "or a fuzzer repro file",
    )
    replay.add_argument(
        "path",
        help="records file (JSONL or SQLite store) written by --out, event "
             "log written by --events-dir, or verify-repro JSON file",
    )
    replay.add_argument(
        "--figure", choices=("summary", "fig5", "fig6"), default="summary",
        help="rendering for records files: summary table or a figure "
             "recomputation",
    )
    replay.add_argument(
        "--json", action="store_true",
        help="machine-readable JSON (records/skipped-line counts included) "
             "instead of a table",
    )

    sub.add_parser("list", help="list the evaluated systems")
    return parser


def _operator_error(exc: Exception) -> int:
    """Print a clean one-line message for a user-input error (exit 2).

    Reserved for lookup/load failures (unknown scenario, a path that
    cannot be read or written, malformed records file or store content) —
    simulation errors propagate with their traceback so internal bugs stay
    debuggable.
    """
    if isinstance(exc, OSError):
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
    else:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
    return 2


def _check_sizes(args: argparse.Namespace) -> None:
    """Reject ``--apps``, ``--sequences`` or ``--jobs`` below 1 and a
    non-positive ``--cell-timeout`` up front."""
    for option in ("apps", "sequences", "jobs"):
        value = getattr(args, option, None)
        if value is not None and value < 1:
            raise ValueError(f"--{option} must be >= 1, got {value}")
    timeout = getattr(args, "cell_timeout", None)
    if timeout is not None and not timeout > 0:
        raise ValueError(f"--cell-timeout must be > 0, got {timeout:g}")


def _campaign_store(scenario_name: str, args: argparse.Namespace):
    """The store a ``campaign run``/``fleet run`` writes to, plus the
    effective ``--snapshot-every`` (``--resume`` implies the default).

    Without ``--out`` a durable run writes ``results/<name>.sqlite`` and
    a plain one ``results/<name>.jsonl``.
    """
    snapshot_every = args.snapshot_every
    if snapshot_every is None:
        snapshot_every = DEFAULT_SNAPSHOT_EVERY if args.resume else 0
    elif snapshot_every < 1:
        raise ValueError(f"--snapshot-every must be >= 1, got {snapshot_every}")
    suffix = "sqlite" if snapshot_every else "jsonl"
    out = args.out or f"results/{scenario_name}.{suffix}"
    return resolve_store(out, args.resume, snapshot_every), snapshot_every


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.campaign_command == "list":
        if args.json:
            entries = []
            for name in scenario_names():
                scenario = get_scenario(name)
                entries.append({
                    "name": name,
                    "systems": list(scenario.system_names()),
                    "sequences": scenario.workload.sequence_count,
                    "seeds": list(scenario.seeds),
                    "condition": scenario.workload.condition.label,
                    "n_apps": scenario.workload.n_apps,
                    "description": scenario.description,
                })
            print(json.dumps(entries, indent=1))
            return 0
        for name in scenario_names():
            scenario = get_scenario(name)
            workload = scenario.workload
            print(
                f"{name:<20s} {len(scenario.system_names())} systems x "
                f"{workload.sequence_count} seq x {len(scenario.seeds)} seeds "
                f"({workload.condition.label}, {workload.n_apps} apps)"
                + (f"  — {scenario.description}" if scenario.description else "")
            )
        return 0
    try:
        scenario = get_scenario(args.scenario).scaled(
            sequence_count=args.sequences,
            n_apps=args.apps,
            seeds=(args.seed,) if args.seed is not None else None,
        )
    except (KeyError, ValueError) as exc:
        # Unknown scenario name, or scale flags the workload rejects
        # (e.g. --sequences 0).
        return _operator_error(exc)
    try:
        store, snapshot_every = _campaign_store(scenario.name, args)
    except ValueError as exc:
        return _operator_error(exc)
    runner = CampaignRunner(
        jobs=args.jobs,
        store=store,
        raw_samples=args.raw_samples,
        events_dir=args.events_dir,
        timeout_s=args.cell_timeout,
        snapshot_every=snapshot_every,
        resume=args.resume,
    )
    try:
        records = runner.run(scenario)
    except StoreFormatError as exc:
        return _operator_error(exc)
    print(summarize_records(records))
    outcome = runner.last_outcome
    if outcome.resumed:
        print(
            f"\nresume: {outcome.resumed} cell(s) already persisted, "
            f"{outcome.executed} executed this run"
        )
    print(f"\n{outcome.executed} records appended to {store.path}")
    if args.events_dir:
        print(f"telemetry event logs written under {args.events_dir}")
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    if args.fleet_command == "list":
        if args.json:
            entries = []
            for name in fleet_scenario_names():
                scenario = get_fleet_scenario(name)
                entries.append({
                    "name": name,
                    "system": scenario.system,
                    "n_shards": scenario.n_shards,
                    "policy": scenario.policy,
                    "policies": policy_names(),
                    "cell_count": scenario.cell_count(),
                    "faults": len(scenario.faults),
                    "seeds": list(scenario.seeds),
                    "workload": scenario.workload.kind,
                    "condition": scenario.workload.condition.label,
                    "n_apps": scenario.workload.n_apps,
                    "description": scenario.description,
                })
            print(json.dumps(entries, indent=1))
            return 0
        for name in fleet_scenario_names():
            scenario = get_fleet_scenario(name)
            workload = scenario.workload
            print(
                f"{name:<20s} {scenario.n_shards} shards x "
                f"{len(scenario.seeds)} seeds, policy {scenario.policy:<12s} "
                f"({workload.kind}, {workload.condition.label}, "
                f"{workload.n_apps} apps, {scenario.system})"
                + (f"  — {scenario.description}" if scenario.description else "")
            )
        return 0
    try:
        scenario = get_fleet_scenario(args.scenario).scaled(
            n_shards=args.shards,
            n_apps=args.apps,
            seeds=(args.seed,) if args.seed is not None else None,
        )
    except (KeyError, ValueError) as exc:
        return _operator_error(exc)
    try:
        store, snapshot_every = _campaign_store(scenario.name, args)
    except ValueError as exc:
        return _operator_error(exc)
    try:
        result = Fleet(scenario).run(
            jobs=args.jobs,
            store=store,
            keep_raw_samples=args.raw_samples,
            events_dir=args.events_dir,
            timeout_s=args.cell_timeout,
            snapshot_every=snapshot_every,
            resume=args.resume,
        )
    except StoreFormatError as exc:
        return _operator_error(exc)
    print(result.rollup.table())
    executed = len(result.records) - result.resumed_cells
    if result.resumed_cells:
        print(
            f"\nresume: {result.resumed_cells} shard cell(s) already "
            f"persisted, {executed} executed this run"
        )
    print(f"\n{executed} shard records appended to {store.path}")
    if args.events_dir:
        print(f"telemetry event logs written under {args.events_dir}")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    if args.json:
        print(json.dumps(
            {kind: list(cls._fields) for kind, cls in EVENT_TYPES.items()},
            indent=1,
        ))
        return 0
    print(format_table(
        ["kind", "fields"],
        [[kind, ", ".join(cls._fields)] for kind, cls in EVENT_TYPES.items()],
        title="Telemetry event schema (every event also carries `t`, ms)",
    ))
    return 0


def _replay_event_log(path: str, as_json: bool) -> int:
    """Re-derive counters and the response digest from one event log."""
    summary = summarize_event_log(path)
    if as_json:
        print(json.dumps(summary, indent=1, sort_keys=True))
        return 0
    meta = summary.get("meta") or {}
    if meta:
        print("event log:", ", ".join(f"{k}={v}" for k, v in sorted(meta.items())))
    counters = summary["counters"]
    print(format_table(
        ["counter", "value"],
        [[name, value] for name, value in counters.items()],
        title=f"Telemetry counters — {path}",
    ))
    response = summary.get("response")
    if response:
        print()
        print(format_table(
            ["count", "mean (ms)", "p50 (ms)", "p95 (ms)", "p99 (ms)",
             "min (ms)", "max (ms)"],
            [[response["count"], response["mean_ms"], response["p50_ms"],
              response["p95_ms"], response["p99_ms"], response["min_ms"],
              response["max_ms"]]],
            title="Response distribution (streaming digest)",
        ))
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    # A fuzzer-found repro replays as a fresh oracle comparison — the
    # one-command reproduction of a persisted kernel divergence.  All
    # other inputs are RunRecord files or telemetry event logs and replay
    # without simulating, so their failures are input problems
    # (missing/malformed file, records that don't form the figure).  Exit
    # codes: 0 clean, 1 empty/failed replay, 2 operator error, 3 rendered
    # but with dropped line(s).
    as_json = args.json
    figure = args.figure
    try:
        from .store import is_sqlite_path

        if not is_sqlite_path(args.path):
            repro_payload = sniff_repro_file(args.path)
            if repro_payload is not None:
                case, _ = parse_repro_payload(repro_payload, source=args.path)
                report = replay_case(case)
                print(report.summary())
                return 0 if report.ok else 1
            if sniff_event_log(args.path):
                # A telemetry event log: re-derive the report from the
                # typed event stream alone (no records, no simulation).
                if figure != "summary":
                    print(
                        f"error: {args.path} is a telemetry event log (one "
                        "run's stream); --figure needs a multi-run records "
                        "file — replay it without --figure for the stream "
                        "summary",
                        file=sys.stderr,
                    )
                    return 2
                return _replay_event_log(args.path, as_json)
        records, skipped = load_records(args.path)
        payload = {
            "path": str(args.path),
            "figure": figure,
            "records": len(records),
            "skipped_lines": skipped,
        }
        if not records:
            if as_json:
                print(json.dumps(payload, indent=1, sort_keys=True))
            else:
                print(f"no records in {args.path}")
                if skipped:
                    print(
                        f"note: {skipped} truncated trailing line(s) "
                        f"skipped while loading {args.path}"
                    )
            return 3 if skipped else 1
        if figure == "fig5":
            result = Fig5Result.from_records(records)
            rendered = result.table()
            payload["reductions"] = result.reductions
        elif figure == "fig6":
            result = fig6_from_records(records)
            rendered = result.table()
            payload["relative_tails"] = result.relative_tails
        else:
            rendered = summarize_records(records)
        if as_json:
            payload["rendered"] = rendered
            print(json.dumps(payload, indent=1, sort_keys=True))
        else:
            print(rendered)
            if skipped:
                print(
                    f"note: {skipped} truncated trailing line(s) "
                    f"skipped while loading {args.path}"
                )
        return 3 if skipped else 0
    except (KeyError, ValueError) as exc:
        return _operator_error(exc)


def _cmd_store(args: argparse.Namespace) -> int:
    from .store import default_projections, open_store
    from .verify.cli import _run_store_audit

    if args.store_command == "verify":
        return _run_store_audit(args.path)
    try:
        if args.store_command == "inspect":
            if not Path(args.path).exists():
                raise FileNotFoundError(
                    2, "No such file or directory", str(args.path)
                )
            with open_store(args.path) as store:
                counts = store.counts()
                max_id = store.max_id()
                snapshot = store.latest_snapshot()
                watermarks = {}
                for projection in default_projections():
                    watermark, state = store.get_projection(projection.name)
                    if state is not None:
                        watermarks[projection.name] = watermark
            summary = {
                "path": str(args.path),
                "notifications": max_id,
                "counts": counts,
                "snapshot": None,
                "projections": watermarks,
            }
            if snapshot is not None:
                summary["snapshot"] = {
                    "completed_cells": snapshot.completed,
                    "covered_id": snapshot.covered_id,
                }
            if args.json:
                print(json.dumps(summary, indent=1, sort_keys=True))
                return 0
            rows = [["notifications", max_id]]
            rows += [[f"kind:{kind}", n] for kind, n in sorted(counts.items())]
            if snapshot is not None:
                rows.append(
                    ["latest snapshot",
                     f"{snapshot.completed} cell(s) through "
                     f"notification {snapshot.covered_id}"]
                )
            else:
                rows.append(["latest snapshot", "none"])
            for name, watermark in sorted(watermarks.items()):
                rows.append([f"projection:{name}", f"watermark {watermark}"])
            print(format_table(
                ["field", "value"], rows, title=f"Store — {args.path}"
            ))
            return 0
        if args.store_command == "export":
            return _export_store(args.path, args.dest)
    except (KeyError, ValueError) as exc:
        return _operator_error(exc)
    return 2  # pragma: no cover - argparse enforces the choices


def _export_store(source: str, dest: str) -> int:
    """``store export``: copy the records of a store or results file.

    A SQLite source gives the records of its notification log, a JSONL
    results file (read by the replay loader) its records; checkpoint
    markers and legacy event rows are left out and counted, so no marker
    ever needs its ``covered_id`` remapped.  A SQLite destination takes
    the records and rebuilds its projections; any other destination
    becomes a plain results file.  The destination must be new or empty:
    exporting into a store that already holds notifications would append
    a second copy.
    """
    from .store import KIND_RECORD, is_sqlite_path, open_store, update_projections

    if not Path(source).exists():
        raise FileNotFoundError(2, "No such file or directory", str(source))
    if is_sqlite_path(source):
        with open_store(source) as store:
            counts = store.counts()
            payloads = [
                n.payload for n in store.select() if n.kind == KIND_RECORD
            ]
    else:
        payloads = [r.to_dict() for r in load_records(source)[0]]
        counts = {}
    if is_sqlite_path(dest):
        with open_store(dest) as store:
            held = store.max_id()
            if held:
                raise ValueError(
                    f"export destination {dest} already holds {held} "
                    "notification(s); export into a new path"
                )
            store.recorder.append((KIND_RECORD, p) for p in payloads)
            update_projections(store)
        target = "a store"
    else:
        if Path(dest).exists() and Path(dest).stat().st_size:
            raise ValueError(
                f"export destination {dest} is not empty; export into a "
                "new path"
            )
        ResultsStore(dest).write(RunRecord.from_dict(p) for p in payloads)
        target = "a results file"
    print(
        f"exported {len(payloads)} record(s) to {target}, leaving out "
        f"{counts.get('event', 0)} event(s) and "
        f"{counts.get('snapshot', 0)} snapshot(s): {source} -> {dest}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except OSError as exc:
        # A path the operator gave is missing, or is a directory where a
        # file belongs (or the reverse): every command reports it the same
        # way.  An OSError naming no path is not an input error.
        if exc.filename is None:
            raise
        return _operator_error(exc)


def _dispatch(args: argparse.Namespace) -> int:
    try:
        _check_sizes(args)
    except ValueError as exc:
        return _operator_error(exc)
    if args.command == "list":
        for name, (cls, config) in SYSTEMS.items():
            print(f"{name:<14s} {cls.__name__:<22s} board={config.value}")
        return 0
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "store":
        return _cmd_store(args)
    if args.command == "telemetry":
        return _cmd_telemetry(args)
    if args.command == "verify":
        return run_verify_command(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "fig5":
        result = run_fig5(
            seed=args.seed, sequence_count=args.sequences, n_apps=args.apps,
            jobs=args.jobs, store=args.out,
        )
        print(result.table())
        return 0
    if args.command == "fig6":
        print(run_fig6(
            seed=args.seed, sequence_count=args.sequences,
            jobs=args.jobs, store=args.out,
        ).table())
        return 0
    if args.command == "fig7":
        print(run_fig7().table())
        return 0
    if args.command == "fig8":
        result = run_fig8(
            seed=args.seed, n_apps=args.apps, jobs=args.jobs, store=args.out,
        )
        if result.samples:
            print(trace_plot(
                [s.value for s in result.samples],
                title="D_switch trajectory",
                thresholds={"T1": 0.1, "T2": 0.0125},
            ))
        else:
            # D_switch is sampled as apps complete on the cluster; a
            # one-app ramp never takes a sample.
            print("D_switch trajectory: no samples")
        print()
        print(bar_chart(
            result.reductions,
            title="Response reduction vs Only.Little",
            reference={"Switching": 2.98, "Only Big.Little": 6.65},
        ))
        print(f"\nmean switching overhead: {result.mean_switch_overhead_ms:.2f} ms "
              f"(paper: {PAPER_SWITCH_OVERHEAD_MS:.2f} ms)")
        return 0
    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
