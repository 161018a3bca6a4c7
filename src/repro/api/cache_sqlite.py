"""SQLite cache backend: one ``.db`` file, transactional crash safety.

Every ``put`` is its own committed transaction, so a process killed
mid-write leaves the database at the last commit — no repair pass, no
in-memory index to rebuild on open, and million-entry caches open in
constant time.

Opened by URI through :func:`repro.api.cache.open_cache`:
``sqlite:///abs/path.db``, ``sqlite://relative.db``, or a plain
directory ``DIR`` (``DIR/results.db``). Every operation is serialized
through the :class:`CacheBackend` RLock (service dispatcher threads, the
thread execution backend), and the store is also safe across
*processes*: WAL plus a generous busy timeout let several runs (batch
sweeps, services) sharing one zero-solve cache file read and commit
against the same database without "database is locked" failures.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Optional

from repro.api.cache import CacheBackend
from repro.api.envelopes import ScheduleResult

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fp TEXT PRIMARY KEY,
    result TEXT NOT NULL
)
"""

#: how long a blocked connection waits for another process's commit
#: before giving up (seconds); applied both as the connect timeout and
#: as PRAGMA busy_timeout
_BUSY_TIMEOUT_S = 30.0


class SqliteResultCache(CacheBackend):
    """Fingerprint-keyed :class:`ScheduleResult` store in one SQLite file.

    >>> cache = open_cache("results-cache/")  # doctest: +SKIP
    >>> for result in iter_solve_batch(requests, cache=cache):  # doctest: +SKIP
    ...     ...
    >>> cache.hits, cache.misses  # doctest: +SKIP
    """

    kind = "sqlite"

    def __init__(self, path: str):
        super().__init__()
        self.path = str(path)
        if not self.path:
            raise ValueError(
                "SqliteResultCache needs a database path; got an empty "
                "location (pass a path or a sqlite:///PATH.db URI)")
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        # check_same_thread=False so the service dispatcher and the
        # thread/queue execution backends can share one open cache; every
        # connection use below is serialized through the CacheBackend
        # RLock — sqlite3 objects are not safe under concurrent
        # execute/commit even when the module is "serialized" threadsafe
        self._conn = sqlite3.connect(self.path, check_same_thread=False,
                                     timeout=_BUSY_TIMEOUT_S)
        with self._lock:
            # WAL keeps readers unblocked during the per-put commits and
            # survives crashes without a repair pass; the busy timeout
            # makes concurrent *processes* (runs sharing one cache
            # file) wait out each other's commits instead of
            # raising "database is locked"
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute(
                f"PRAGMA busy_timeout={int(_BUSY_TIMEOUT_S * 1000)}")
            self._conn.execute(_SCHEMA)
            self._conn.commit()

    @property
    def location(self) -> str:
        return self.path

    def put(self, fingerprint: str, result: ScheduleResult) -> None:
        """Record a freshly computed result; duplicates are ignored.

        Overrides the base implementation to skip its ``in self``
        pre-check: ``INSERT OR IGNORE`` already dedupes, so one
        round-trip per put instead of two (a million-request sweep saves
        a million SELECTs).
        """
        with self._lock:
            self._write(fingerprint, result)

    # -- storage hooks (callers hold self._lock via get/put; the direct
    # entry points below take it themselves — it is reentrant) ----------
    def _read(self, fingerprint: str) -> Optional[ScheduleResult]:
        with self._lock:
            row = self._conn.execute(
                "SELECT result FROM results WHERE fp = ?", (fingerprint,)
            ).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except ValueError:  # defensive: unreadable payload = miss
            return None
        return ScheduleResult.from_dict(payload)

    def _write(self, fingerprint: str, result: ScheduleResult) -> None:
        # committed per put: a crash between puts loses at most nothing,
        # a crash mid-put is rolled back by the journal
        with self._lock:
            self._conn.execute(
                "INSERT OR IGNORE INTO results (fp, result) VALUES (?, ?)",
                (fingerprint, json.dumps(result.to_dict(), sort_keys=True)))
            self._conn.commit()

    def __len__(self) -> int:
        with self._lock:
            return self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()[0]

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            return self._conn.execute(
                "SELECT 1 FROM results WHERE fp = ?", (fingerprint,)
            ).fetchone() is not None

    def close(self) -> None:
        with self._lock:
            if self._conn is not None:
                self._conn.close()
                self._conn = None
