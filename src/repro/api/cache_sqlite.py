"""SQLite cache backend: one ``.db`` file, transactional crash safety.

Every ``put`` is its own committed transaction, so a process killed
mid-write leaves the database at the last commit, and million-entry
caches open in constant time. Opened by URI through
:func:`repro.api.cache.open_cache`. Every operation is serialized
through the :class:`CacheBackend` RLock, and the file is safe across
processes too (:func:`repro.utils.sqlite.connect`), so several runs can
share one zero-solve cache.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.api.cache import CacheBackend
from repro.api.envelopes import ScheduleResult
from repro.utils.sqlite import connect

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    fp TEXT PRIMARY KEY,
    result TEXT NOT NULL
)
"""


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
        self._conn = connect(self.path, _SCHEMA)

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
            self._conn.close()  # idempotent
