#!/usr/bin/env python3
"""Resume-equivalence smoke: an interrupted fleet campaign, resumed, must
be byte-identical to an uninterrupted one.

The CI gate behind the durable event store's core promise:

1. run a fleet campaign cleanly and serially into one SQLite store;
2. run the same campaign with ``--jobs 2`` into a second store and
   SIGKILL the process partway (after at least one record has landed,
   before the last); its pool workers must exit with it;
3. rerun with ``--resume``, again with ``--jobs 2``;
4. assert the records, the rollup table, the projection-backed replay
   report and every built-in projection's persisted state are identical
   between the clean and the resumed store, and that both stores
   ``store export`` to byte-identical JSONL results files.  Projection
   watermarks are left out: a kill can leave the two stores with
   different snapshot counts.

The serial clean run against the pooled interrupted-and-resumed one also
checks serial-vs-``--jobs`` identity under SIGKILL.

Artifacts (stdout captures + replay JSON of both stores) land in
``--workdir`` so a mismatch uploads everything needed to triage.
"""

import argparse
import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path


def run_cli(args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        text=True, capture_output=True,
    )
    if check and proc.returncode != 0:
        print(f"command failed ({proc.returncode}): repro {' '.join(args)}")
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        sys.exit(1)
    return proc


def record_count(path: Path) -> int:
    """Persisted record count, read without touching the store's writer."""
    if not path.exists():
        return 0
    try:
        with sqlite3.connect(f"file:{path}?mode=ro", uri=True) as conn:
            row = conn.execute(
                "SELECT COUNT(*) FROM notifications WHERE kind = 'record'"
            ).fetchone()
            return int(row[0])
    except sqlite3.Error:
        return 0


def child_pids(pid: int) -> list:
    """Pids whose parent is ``pid``, read from /proc (Linux)."""
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(stat.parent.name))
    return found


def still_running(pids, grace_s: float = 5.0) -> list:
    """The pids that have not exited (zombies count as exited) within
    ``grace_s`` seconds."""

    def running(pid: int) -> bool:
        try:
            stat = Path(f"/proc/{pid}/stat").read_text()
        except OSError:
            return False
        return stat.rsplit(")", 1)[1].split()[0] != "Z"

    deadline = time.monotonic() + grace_s
    while any(map(running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if running(pid)]


def interrupted_run(cmd, out: Path, timeout_s: float = 180.0):
    """Launch the campaign and SIGKILL it once >= 1 record has landed.

    Returns ``(interrupted, workers)``: whether the kill landed while the
    process was still running (i.e. the run was genuinely interrupted
    partway), and the pids of its pool workers at that moment.
    """
    proc = subprocess.Popen(
        cmd, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return False, []  # finished before we could interrupt it
        if record_count(out) >= 1:
            workers = child_pids(proc.pid)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
            return True, workers
        time.sleep(0.02)
    proc.kill()
    proc.wait(timeout=60)
    print("error: interrupted run hit the watchdog timeout", file=sys.stderr)
    sys.exit(1)


def replay_payload(path: Path) -> dict:
    proc = run_cli(["replay", str(path), "--json"])
    return json.loads(proc.stdout)


def projection_states(path: Path) -> dict:
    """Each built-in projection's persisted state, without its watermark."""
    from repro.store import default_projections, open_store

    with open_store(path) as store:
        return {
            projection.name: store.get_projection(projection.name)[1]
            for projection in default_projections()
        }


def rollup_table(stdout: str) -> str:
    """The rollup table block (everything before the first blank line)."""
    return stdout.split("\n\n", 1)[0]


def fail(workdir: Path, what: str, clean, resumed) -> None:
    (workdir / "clean.capture").write_text(str(clean))
    (workdir / "resumed.capture").write_text(str(resumed))
    print(f"MISMATCH: {what} differs between clean and resumed runs")
    print(f"  artifacts: {workdir}/clean.capture vs {workdir}/resumed.capture")
    sys.exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default="fleet-smoke")
    parser.add_argument("--apps", type=int, default=120,
                        help="arrival-stream size (bigger = wider kill window)")
    parser.add_argument("--workdir", default="results/resume-smoke")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    clean_out = workdir / "clean.sqlite"
    resumed_out = workdir / "resumed.sqlite"
    for stale in workdir.glob("*"):
        if stale.is_file():
            stale.unlink()

    # Three shards per worker: the pool prefetches, so the kill has to
    # land while later shards are still queued behind the finished ones.
    base = [
        sys.executable, "-m", "repro", "fleet", "run", args.scenario,
        "--shards", "6", "--apps", str(args.apps), "--snapshot-every", "1",
    ]

    print(f"[1/4] clean run -> {clean_out}")
    clean = subprocess.run(
        base + ["--out", str(clean_out)], text=True, capture_output=True
    )
    if clean.returncode != 0:
        print(clean.stdout)
        print(clean.stderr, file=sys.stderr)
        return 1
    (workdir / "clean.stdout").write_text(clean.stdout)

    print(f"[2/4] interrupted run (--jobs 2, SIGKILL mid-campaign) -> "
          f"{resumed_out}")
    interrupted, workers = interrupted_run(
        base + ["--jobs", "2", "--out", str(resumed_out)],
        resumed_out,
    )
    partial = record_count(resumed_out)
    total = record_count(clean_out)
    print(f"      killed with {partial}/{total} record(s) persisted "
          f"(interrupted={interrupted}, pool workers={len(workers)})")
    if not interrupted or partial >= total:
        print("error: the run completed before the kill landed; raise "
              "--apps so cells take long enough to interrupt",
              file=sys.stderr)
        return 1
    if Path("/proc/self/stat").exists():
        if not workers:
            print("error: the --jobs 2 run had no pool workers when it "
                  "was killed", file=sys.stderr)
            return 1
        leaked = still_running(workers)
        if leaked:
            print(f"error: pool worker(s) {leaked} outlived the killed run",
                  file=sys.stderr)
            return 1

    print("[3/4] resume (--jobs 2)")
    resume = subprocess.run(
        base + ["--jobs", "2", "--out", str(resumed_out), "--resume"],
        text=True, capture_output=True,
    )
    if resume.returncode != 0:
        print(resume.stdout)
        print(resume.stderr, file=sys.stderr)
        return 1
    (workdir / "resumed.stdout").write_text(resume.stdout)
    if "resume:" not in resume.stdout:
        fail(workdir, "resume accounting line", clean.stdout, resume.stdout)

    print("[4/4] compare exported bytes / rollups / projection report + "
          "states")
    clean_export = clean_out.with_suffix(".jsonl")
    resumed_export = resumed_out.with_suffix(".jsonl")
    run_cli(["store", "export", str(clean_out), str(clean_export)])
    run_cli(["store", "export", str(resumed_out), str(resumed_export)])
    if clean_export.read_bytes() != resumed_export.read_bytes():
        fail(workdir, "exported results-file bytes",
             clean_export.read_text(), resumed_export.read_text())
    clean_replay = replay_payload(clean_out)
    resumed_replay = replay_payload(resumed_out)
    for payload in (clean_replay, resumed_replay):
        payload.pop("path", None)
    (workdir / "clean.replay.json").write_text(json.dumps(clean_replay))
    (workdir / "resumed.replay.json").write_text(json.dumps(resumed_replay))
    if clean_replay != resumed_replay:
        fail(workdir, "projection replay report", clean_replay, resumed_replay)
    if clean_replay["skipped_lines"] != 0:
        fail(workdir, "skipped-line count (must be 0)", clean_replay, resumed_replay)
    if rollup_table(clean.stdout) != rollup_table(resume.stdout):
        fail(workdir, "fleet rollup table",
             rollup_table(clean.stdout), rollup_table(resume.stdout))
    clean_states = projection_states(clean_out)
    resumed_states = projection_states(resumed_out)
    if None in clean_states.values():
        fail(workdir, "persisted projection set (a projection never saved)",
             clean_states, resumed_states)
    if clean_states != resumed_states:
        fail(workdir, "persisted projection states",
             clean_states, resumed_states)
    for store in (clean_out, resumed_out):
        run_cli(["store", "verify", str(store)])

    print(f"resume smoke OK: interrupted at {partial}/{total} records, "
          "resumed run byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
