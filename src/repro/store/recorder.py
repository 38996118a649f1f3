"""The durable event recorder: the SQLite file behind the store.

:class:`SqliteRecorder` owns one notification log — globally ordered,
monotonically numbered, append-only — plus a small projection-state table
(per-projection watermark + folded state), in a single-file SQLite
database in WAL mode.  Batch appends are one transaction, so a killed
writer leaves a clean prefix at transaction granularity: either the whole
batch is visible after reopen or none of it is, never a torn record.

The recorder assumes a single writer per store (the campaign
orchestrator); readers are free to open the same store concurrently.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .notification import NOTIFICATION_KINDS, Notification, StoreFormatError

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


class SqliteRecorder:
    """Single-file SQLite notification log (WAL mode, transactional)."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
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

    @staticmethod
    def _check_kind(kind: str) -> None:
        if kind not in NOTIFICATION_KINDS:
            raise ValueError(
                f"unknown notification kind {kind!r}; "
                f"known: {', '.join(NOTIFICATION_KINDS)}"
            )

    def append(
        self, entries: Iterable[Tuple[str, Dict[str, object]]]
    ) -> List[int]:
        """Durably append ``(kind, payload)`` entries as one atomic batch.

        Returns the assigned notification ids, in entry order.  Ids are
        dense and strictly increasing across the log's whole lifetime.
        """
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
        """Notifications with ``id >= start``, oldest first."""
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
        """The newest notification id (0 when the log is empty)."""
        row = self._conn.execute(
            "SELECT COALESCE(MAX(id), 0) FROM notifications"
        ).fetchone()
        return int(row[0])

    def counts(self) -> Dict[str, int]:
        """Notification counts per kind."""
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
        """A projection's persisted ``(watermark, state)`` (``(0, None)``
        when it has never been saved)."""
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
        """Persist a projection's watermark and folded state."""
        self._conn.execute(
            "INSERT INTO projections (name, watermark, state) "
            "VALUES (?, ?, ?) ON CONFLICT(name) DO UPDATE SET "
            "watermark = excluded.watermark, state = excluded.state",
            (name, watermark, json.dumps(state, sort_keys=True)),
        )

    def close(self) -> None:
        """Release the connection (idempotent)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None  # type: ignore[assignment]


__all__ = [
    "SQLITE_MAGIC",
    "SQLITE_SUFFIXES",
    "SqliteRecorder",
    "is_sqlite_path",
]
