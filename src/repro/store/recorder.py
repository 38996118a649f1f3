"""Durable event recorders: the pluggable persistence behind the store.

An :class:`EventRecorder` owns one notification log — globally ordered,
monotonically numbered, append-only — plus a small projection-state table
(per-projection watermark + folded state).  Two production adapters:

* :class:`SqliteRecorder` — a single-file SQLite database in WAL mode.
  Batch appends are one transaction, so a killed writer leaves a clean
  prefix at transaction granularity: either the whole batch is visible
  after reopen or none of it is, never a torn record.
* :class:`JsonlRecorder` — wraps today's on-disk campaign results format.
  Record notifications live in the plain results JSONL file (existing
  ``results/*.jsonl`` files keep loading bit-identically and bootstrap
  into a log on first open); non-record notifications and the global
  ordering live in a ``.nlog`` sidecar, projection state in a
  ``.proj.json`` sidecar.  The results file is always written first, so
  a crash between the two files self-heals on the next open.

Recorders assume a single writer per store (the campaign orchestrator);
readers are free to open the same store concurrently.
"""

from __future__ import annotations

import json
import os
import sqlite3
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .notification import (
    KIND_RECORD,
    NOTIFICATION_KINDS,
    Notification,
    StoreFormatError,
)

#: File suffixes recognized as SQLite stores without sniffing content.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")
#: The 16-byte magic prefix of every SQLite database file.
SQLITE_MAGIC = b"SQLite format 3\x00"


def is_sqlite_path(path: Union[str, Path]) -> bool:
    """True when ``path`` names an (existing or intended) SQLite store."""
    path = Path(path)
    if path.suffix.lower() in SQLITE_SUFFIXES:
        return True
    try:
        with path.open("rb") as handle:
            return handle.read(len(SQLITE_MAGIC)) == SQLITE_MAGIC
    except OSError:
        return False


class EventRecorder(ABC):
    """Append-only notification log + projection-state persistence."""

    #: Human-readable backend tag ("sqlite" / "jsonl").
    backend = "?"
    path: Path

    @abstractmethod
    def append(
        self, entries: Iterable[Tuple[str, Dict[str, object]]]
    ) -> List[int]:
        """Durably append ``(kind, payload)`` entries as one atomic batch.

        Returns the assigned notification ids, in entry order.  Ids are
        dense and strictly increasing across the log's whole lifetime.
        """

    @abstractmethod
    def select(
        self, start: int = 1, limit: Optional[int] = None
    ) -> List[Notification]:
        """Notifications with ``id >= start``, oldest first."""

    @abstractmethod
    def max_id(self) -> int:
        """The newest notification id (0 when the log is empty)."""

    @abstractmethod
    def counts(self) -> Dict[str, int]:
        """Notification counts per kind."""

    @abstractmethod
    def get_projection(
        self, name: str
    ) -> Tuple[int, Optional[Dict[str, object]]]:
        """A projection's persisted ``(watermark, state)`` (``(0, None)``
        when it has never been saved)."""

    @abstractmethod
    def set_projection(
        self, name: str, watermark: int, state: Dict[str, object]
    ) -> None:
        """Persist a projection's watermark and folded state."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release any underlying handles (idempotent)."""

    # -- context manager sugar -------------------------------------------
    def __enter__(self) -> "EventRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @staticmethod
    def _check_kind(kind: str) -> None:
        if kind not in NOTIFICATION_KINDS:
            raise ValueError(
                f"unknown notification kind {kind!r}; "
                f"known: {', '.join(NOTIFICATION_KINDS)}"
            )


class SqliteRecorder(EventRecorder):
    """Single-file SQLite notification log (WAL mode, transactional)."""

    backend = "sqlite"

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        #: Parity with the JSONL results store: SQLite cannot tear lines.
        self.skipped_lines = 0
        self._conn = sqlite3.connect(str(self.path), isolation_level=None)
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS notifications ("
                " id INTEGER PRIMARY KEY AUTOINCREMENT,"
                " kind TEXT NOT NULL,"
                " payload TEXT NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS projections ("
                " name TEXT PRIMARY KEY,"
                " watermark INTEGER NOT NULL,"
                " state TEXT NOT NULL)"
            )
        except sqlite3.DatabaseError as exc:
            # e.g. a JSONL file behind a .sqlite name: a typed input error,
            # not a traceback.
            self._conn.close()
            raise ValueError(
                f"cannot open SQLite store {self.path}: {exc}"
            ) from exc

    def append(
        self, entries: Iterable[Tuple[str, Dict[str, object]]]
    ) -> List[int]:
        rows = []
        for kind, payload in entries:
            self._check_kind(kind)
            rows.append((kind, json.dumps(payload, sort_keys=True)))
        if not rows:
            return []
        cur = self._conn.cursor()
        cur.execute("BEGIN IMMEDIATE")
        try:
            # One batched statement per append: the transaction already
            # held the write lock, so ids stay dense and the batch lands
            # (or rolls back) as a unit.  AUTOINCREMENT guarantees the
            # new ids follow the pre-insert maximum.
            row = cur.execute(
                "SELECT COALESCE(MAX(id), 0) FROM notifications"
            ).fetchone()
            first = int(row[0]) + 1
            cur.executemany(
                "INSERT INTO notifications (kind, payload) VALUES (?, ?)",
                rows,
            )
            cur.execute("COMMIT")
        except BaseException:
            cur.execute("ROLLBACK")
            raise
        return list(range(first, first + len(rows)))

    def select(
        self, start: int = 1, limit: Optional[int] = None
    ) -> List[Notification]:
        sql = (
            "SELECT id, kind, payload FROM notifications "
            "WHERE id >= ? ORDER BY id"
        )
        args: Tuple = (start,)
        if limit is not None:
            sql += " LIMIT ?"
            args = (start, limit)
        return [
            Notification(id=row[0], kind=row[1], payload=json.loads(row[2]))
            for row in self._conn.execute(sql, args)
        ]

    def max_id(self) -> int:
        row = self._conn.execute(
            "SELECT COALESCE(MAX(id), 0) FROM notifications"
        ).fetchone()
        return int(row[0])

    def counts(self) -> Dict[str, int]:
        return {
            row[0]: row[1]
            for row in self._conn.execute(
                "SELECT kind, COUNT(*) FROM notifications "
                "GROUP BY kind ORDER BY kind"
            )
        }

    def get_projection(
        self, name: str
    ) -> Tuple[int, Optional[Dict[str, object]]]:
        row = self._conn.execute(
            "SELECT watermark, state FROM projections WHERE name = ?", (name,)
        ).fetchone()
        if row is None:
            return 0, None
        try:
            state = json.loads(row[1])
        except ValueError as exc:
            raise StoreFormatError(
                f"projection {name!r}: persisted state is not valid JSON "
                f"({exc})"
            ) from exc
        return int(row[0]), state

    def set_projection(
        self, name: str, watermark: int, state: Dict[str, object]
    ) -> None:
        self._conn.execute(
            "INSERT INTO projections (name, watermark, state) "
            "VALUES (?, ?, ?) ON CONFLICT(name) DO UPDATE SET "
            "watermark = excluded.watermark, state = excluded.state",
            (name, watermark, json.dumps(state, sort_keys=True)),
        )

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]


class JsonlRecorder(EventRecorder):
    """Notification log wrapping the plain campaign results JSONL format.

    The results file at ``path`` stays byte-for-byte what
    :class:`~repro.campaign.results.ResultsStore` writes — an existing
    file opens as a log whose record notifications are its lines, in
    order.  The global ordering (and every non-record notification) lives
    in ``<path>.nlog``: one JSON line per notification, record entries as
    ``{"id": N, "kind": "record", "ref": R}`` references into the results
    file, other kinds carrying their payload inline.
    """

    backend = "jsonl"

    def __init__(self, path: Union[str, Path]) -> None:
        from ..campaign.results import ResultsStore  # lazy: avoids a cycle

        self.path = Path(path)
        self._results = ResultsStore(self.path)
        self._log_path = self.path.with_name(self.path.name + ".nlog")
        self._proj_path = self.path.with_name(self.path.name + ".proj.json")
        #: Writer-side bookkeeping (record count / newest id), refreshed
        #: from disk by every ``_sync`` and advanced in memory by
        #: ``append`` — the single-writer contract makes that exact, and
        #: it keeps a campaign's Nth chunk append from re-parsing the
        #: N-1 chunks already on disk.
        self._n_records = 0
        self._max_id = 0
        self._sync()

    # -- internal helpers ------------------------------------------------
    @property
    def skipped_lines(self) -> int:
        """Truncated lines the most recent record load skipped."""
        return self._results.skipped_lines

    def _load_log(self) -> List[Dict[str, object]]:
        """The sidecar's entries (tolerating a truncated final line)."""
        from ..telemetry.replay import iter_jsonl_payloads

        if not self._log_path.exists():
            return []
        entries: List[Dict[str, object]] = []
        with self._log_path.open("r", encoding="utf-8") as handle:
            for _line_no, payload in iter_jsonl_payloads(
                handle, self._log_path, what="notification",
                on_skip=lambda _no: None,
            ):
                entries.append(payload)
        return entries

    def _sync(self) -> None:
        """Reconcile the sidecar with the results file.

        Records are always written to the results file *first*, so after
        a crash the sidecar can only be behind: any record line not yet
        referenced gets a reference appended (which is also how a legacy
        results file bootstraps into a log on first open).
        """
        n_records = len(self._records()) if self.path.exists() else 0
        entries = self._load_log()
        referenced = sum(1 for e in entries if e.get("kind") == KIND_RECORD)
        if referenced > n_records:
            raise ValueError(
                f"{self._log_path}: references {referenced} records but "
                f"{self.path} holds {n_records} — the results file was "
                "truncated outside the store; rebuild the log by deleting "
                f"{self._log_path.name}"
            )
        max_id = int(entries[-1]["id"]) if entries else 0
        if referenced < n_records:
            next_id = max_id + 1
            healed = [
                {"id": next_id + i, "kind": KIND_RECORD, "ref": referenced + i}
                for i in range(n_records - referenced)
            ]
            self._append_log_lines(healed)
            max_id = next_id + len(healed) - 1
        self._n_records = n_records
        self._max_id = max_id

    def _records(self):
        return self._results.load()

    def _append_log_lines(self, entries: List[Dict[str, object]]) -> None:
        self._log_path.parent.mkdir(parents=True, exist_ok=True)
        with self._log_path.open("a", encoding="utf-8") as handle:
            for entry in entries:
                handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    # -- EventRecorder surface -------------------------------------------
    def append(
        self, entries: Iterable[Tuple[str, Dict[str, object]]]
    ) -> List[int]:
        from ..campaign.results import RunRecord  # lazy: avoids a cycle

        entries = list(entries)
        for kind, _payload in entries:
            self._check_kind(kind)
        if not entries:
            return []
        # No re-sync here: the open-time ``_sync`` reconciled the files,
        # and this instance is the store's single writer, so the cached
        # count and id are authoritative — re-parsing both files on every
        # chunk append would make a campaign's persistence O(N^2).
        next_id = self._max_id + 1
        n_existing = self._n_records
        records = [
            RunRecord.from_dict(payload)
            for kind, payload in entries
            if kind == KIND_RECORD
        ]
        # Results file first: a crash after this point self-heals into
        # exactly these notifications on the next open.
        if records:
            self._results.extend(records)
        lines: List[Dict[str, object]] = []
        ids: List[int] = []
        ref = n_existing
        for kind, payload in entries:
            entry: Dict[str, object] = {"id": next_id, "kind": kind}
            if kind == KIND_RECORD:
                entry["ref"] = ref
                ref += 1
            else:
                entry["payload"] = payload
            lines.append(entry)
            ids.append(next_id)
            next_id += 1
        self._append_log_lines(lines)
        self._n_records = ref
        self._max_id = ids[-1]
        return ids

    def select(
        self, start: int = 1, limit: Optional[int] = None
    ) -> List[Notification]:
        self._sync()
        entries = self._load_log()
        records = None
        out: List[Notification] = []
        for entry in entries:
            nid = int(entry["id"])
            if nid < start:
                continue
            kind = str(entry["kind"])
            if kind == KIND_RECORD:
                if records is None:
                    records = self._records()
                payload = records[int(entry["ref"])].to_dict()
            else:
                payload = dict(entry["payload"])  # type: ignore[arg-type]
            out.append(Notification(id=nid, kind=kind, payload=payload))
            if limit is not None and len(out) >= limit:
                break
        return out

    def max_id(self) -> int:
        entries = self._load_log()
        return int(entries[-1]["id"]) if entries else 0

    def counts(self) -> Dict[str, int]:
        self._sync()
        tally: Dict[str, int] = {}
        for entry in self._load_log():
            kind = str(entry["kind"])
            tally[kind] = tally.get(kind, 0) + 1
        return dict(sorted(tally.items()))

    def _load_projections(self) -> Dict[str, Dict[str, object]]:
        if not self._proj_path.exists():
            return {}
        with self._proj_path.open("r", encoding="utf-8") as handle:
            try:
                return json.load(handle).get("projections", {})
            except (AttributeError, ValueError) as exc:
                raise StoreFormatError(
                    f"{self._proj_path}: projection sidecar does not decode "
                    f"({type(exc).__name__}: {exc})"
                ) from exc

    def get_projection(
        self, name: str
    ) -> Tuple[int, Optional[Dict[str, object]]]:
        entry = self._load_projections().get(name)
        if entry is None:
            return 0, None
        try:
            return int(entry["watermark"]), dict(entry["state"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreFormatError(
                f"projection {name!r}: malformed entry in "
                f"{self._proj_path} ({type(exc).__name__}: {exc})"
            ) from exc

    def set_projection(
        self, name: str, watermark: int, state: Dict[str, object]
    ) -> None:
        projections = self._load_projections()
        projections[name] = {"watermark": watermark, "state": state}
        tmp = self._proj_path.with_name(self._proj_path.name + ".tmp")
        self._proj_path.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump({"projections": projections}, handle, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._proj_path)

    def close(self) -> None:
        pass  # every operation opens and closes its own handles


__all__ = [
    "EventRecorder",
    "JsonlRecorder",
    "SQLITE_MAGIC",
    "SQLITE_SUFFIXES",
    "SqliteRecorder",
    "is_sqlite_path",
]
