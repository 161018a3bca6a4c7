"""The service's job store: one SQLite file, one row per job.

``DIR/jobs.db`` holds one ``jobs`` table: each job's spec, status and
result, each as its envelope's ``to_json()``. The database is the only
copy: every method is one query and every write one transaction, so a
crash leaves each job at its last committed state. :meth:`JobStore.submit`
writes the spec with its ``queued`` status, and :meth:`JobStore.finish`
the result with the terminal status, so no job reads ``done`` without
its result.

:meth:`JobStore.recover` is the restart contract: jobs that were
``queued`` when the previous server died are simply still queued (the
new dispatcher re-enqueues them); jobs that were ``running`` are marked
``crashed`` — the server cannot know how far they got, so it reports
the truth rather than resuming mid-batch. Progress ticks are *not*
persisted per request (that would write O(requests) rows); the store
sees queued → running → terminal, and live progress counters flow
through the dispatcher's in-memory view instead.

All methods are thread-safe: the dispatcher finishes jobs from worker
threads while the asyncio loop reads statuses for poll requests.
"""

from __future__ import annotations

import dataclasses
import os
import sqlite3
import threading
from typing import Dict, List, Optional, Tuple

from repro.service.jobs import JobResult, JobSpec, JobStatus
from repro.utils.sqlite import connect

#: file name of the job database inside its directory
STORE_FILENAME = "jobs.db"

#: ``seq`` is the submission order, ``state`` the status's state (for
#: queries), and ``result`` is NULL until a ``done`` job finishes
_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    id TEXT UNIQUE NOT NULL,
    state TEXT NOT NULL,
    spec TEXT NOT NULL,
    status TEXT NOT NULL,
    result TEXT
)
"""


class JobStore:
    """Durable record of every job a server ever accepted.

    >>> store = JobStore("service-store/")      # doctest: +SKIP
    >>> store.submit(spec)                      # doctest: +SKIP
    >>> store.status(spec.id).state             # doctest: +SKIP
    'queued'
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        old_log = os.path.join(self.directory, "jobs.jsonl")
        if os.path.exists(old_log):
            raise ValueError(
                f"{old_log} is a job log from an older server, which this "
                f"version does not read; move it away to start a new store")
        self.path = os.path.join(self.directory, STORE_FILENAME)
        self._lock = threading.Lock()
        self._conn = connect(self.path, _SCHEMA)
        # the store promises that a commit survives the process dying, not
        # a power loss; WAL + NORMAL gives exactly that without an fsync
        # per job write (three per job), which FULL would add to latency
        self._conn.execute("PRAGMA synchronous=NORMAL")

    def _query(self, sql: str, *args) -> List[Tuple]:
        with self._lock:
            return self._conn.execute(sql, args).fetchall()

    def _write(self, sql: str, *args) -> None:
        """Run one statement as one transaction; KeyError if no row."""
        with self._lock, self._conn:
            if self._conn.execute(sql, args).rowcount == 0:
                raise KeyError(f"unknown job id {args[-1]!r}")

    # -- the write API --------------------------------------------------
    def submit(self, spec: JobSpec) -> JobStatus:
        """Record a new job: its spec plus an initial ``queued`` status."""
        status = JobStatus(id=spec.id, state="queued",
                           total=spec.total_requests(),
                           submitted_at=spec.submitted_at)
        try:
            with self._lock, self._conn:
                self._conn.execute(
                    "INSERT INTO jobs (id, state, spec, status) "
                    "VALUES (?, ?, ?, ?)",
                    (spec.id, status.state, spec.to_json(), status.to_json()))
        except sqlite3.IntegrityError:
            raise ValueError(f"job id {spec.id!r} already exists") from None
        return status

    def update(self, status: JobStatus) -> None:
        """Persist a status transition (queued → running → terminal)."""
        self._write("UPDATE jobs SET state = ?, status = ? WHERE id = ?",
                    status.state, status.to_json(), status.id)

    def finish(self, status: JobStatus, result: Optional[JobResult]) -> None:
        """Persist a terminal status and (for ``done`` jobs) the result,
        in one transaction."""
        if not status.terminal:
            raise ValueError(f"finish() needs a terminal state, "
                             f"got {status.state!r}")
        self._write(
            "UPDATE jobs SET state = ?, status = ?, result = ? WHERE id = ?",
            status.state, status.to_json(),
            None if result is None else result.to_json(), status.id)

    # -- the read API ---------------------------------------------------
    def spec(self, job_id: str) -> Optional[JobSpec]:
        rows = self._query("SELECT spec FROM jobs WHERE id = ?", job_id)
        return JobSpec.from_json(rows[0][0]) if rows else None

    def status(self, job_id: str) -> Optional[JobStatus]:
        rows = self._query("SELECT status FROM jobs WHERE id = ?", job_id)
        return JobStatus.from_json(rows[0][0]) if rows else None

    def result(self, job_id: str) -> Optional[JobResult]:
        rows = self._query("SELECT result FROM jobs WHERE id = ?", job_id)
        return JobResult.from_json(rows[0][0]) \
            if rows and rows[0][0] is not None else None

    def jobs(self) -> List[str]:
        """Every known job id, in submission order."""
        return [job_id for job_id, in
                self._query("SELECT id FROM jobs ORDER BY seq")]

    def __len__(self) -> int:
        return self._query("SELECT COUNT(*) FROM jobs")[0][0]

    def __contains__(self, job_id: str) -> bool:
        return bool(self._query("SELECT 1 FROM jobs WHERE id = ?", job_id))

    def counts(self) -> Dict[str, int]:
        """How many jobs sit in each state (for ``/v1/stats``)."""
        return dict(self._query(
            "SELECT state, COUNT(*) FROM jobs GROUP BY state"))

    # -- restart --------------------------------------------------------
    def recover(self) -> Tuple[List[str], List[str]]:
        """Reconcile jobs left over by a dead server.

        Returns ``(requeued, crashed)``: ids still ``queued`` (the new
        dispatcher should enqueue them again) and ids that were
        ``running`` when the previous process died — those are marked
        ``crashed`` durably, because the server cannot know how much of
        a half-run batch completed and must not silently re-run it.
        """
        requeued: List[str] = []
        crashed: List[str] = []
        for job_id, text in self._query(
                "SELECT id, status FROM jobs WHERE state IN "
                "('queued', 'running') ORDER BY seq"):
            status = JobStatus.from_json(text)
            if status.state == "queued":
                requeued.append(job_id)
            else:
                self.update(dataclasses.replace(
                    status, state="crashed",
                    error="server terminated while the job was running"))
                crashed.append(job_id)
        return requeued, crashed

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._conn.close()  # idempotent

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
