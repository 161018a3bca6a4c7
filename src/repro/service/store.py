"""Append-only JSONL job store on the shared crash-tolerant log.

One directory, one ``jobs.jsonl`` file — an
:class:`~repro.utils.appendlog.AppendLog` — one JSON object per line::

    {"type": "spec",   "job": <JobSpec.to_dict()>}
    {"type": "status", "job": <JobStatus.to_dict()>}
    {"type": "result", "job": <JobResult.to_dict()>}

The store is event-sourced: a job's history is its sequence of lines,
and its current state is the *last* status line for its id. Nothing is
ever rewritten — crash durability is the log's contract: every append
is flushed line-by-line, a truncated final line (the crash artifact) is
skipped on load, and the next writer terminates the torn fragment
before appending so the file self-repairs. Lines are strict JSON (``allow_nan=False``), like the job
envelopes' own encoding.

Specs and statuses are small and kept in memory, but result payloads
(which carry every per-request record of a scenario job) are indexed by
byte offset and read back lazily on :meth:`JobStore.result`.

:meth:`JobStore.recover` is the restart contract: jobs that were
``queued`` when the previous server died are simply still queued (the
new dispatcher re-enqueues them); jobs that were ``running`` are marked
``crashed`` — the server cannot know how far they got, so it reports
the truth rather than resuming mid-batch. Progress ticks are *not*
persisted per request (that would write O(requests) status lines); the
store sees queued → running → terminal, and live progress counters flow
through the dispatcher's in-memory view instead.

All methods are thread-safe: the dispatcher finishes jobs from worker
threads while the asyncio loop reads statuses for poll requests.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Tuple

from repro.service.jobs import JobResult, JobSpec, JobStatus
from repro.utils.appendlog import AppendLog

#: file name of the job log inside its directory
STORE_FILENAME = "jobs.jsonl"


class JobStore:
    """Durable record of every job a server ever accepted.

    >>> store = JobStore("service-store/")      # doctest: +SKIP
    >>> store.submit(spec)                      # doctest: +SKIP
    >>> store.status(spec.id).state             # doctest: +SKIP
    'queued'
    """

    def __init__(self, directory: str):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.path = os.path.join(self.directory, STORE_FILENAME)
        self._lock = threading.Lock()
        self._log = AppendLog(self.path)
        self._specs: Dict[str, JobSpec] = {}
        self._statuses: Dict[str, JobStatus] = {}
        #: job id -> byte offset of its result line (payloads stay on disk)
        self._result_offsets: Dict[str, int] = {}
        self._order: List[str] = []  # submission order of job ids
        for offset, entry in self._log.replay():
            self._replay(entry, offset)

    # -- replay ---------------------------------------------------------
    def _replay(self, entry: Dict, offset: int) -> None:
        kind = entry.get("type")
        try:
            payload = entry["job"]
            job_id = payload["id"]
            if kind == "spec":
                spec = JobSpec.from_dict(payload)
                if spec.id not in self._specs:
                    self._order.append(spec.id)
                self._specs[spec.id] = spec
            elif kind == "status":
                self._statuses[job_id] = JobStatus.from_dict(payload)
            elif kind == "result":
                # the payload is validated lazily on read; only the
                # offset is kept so huge scenario results cost nothing
                self._result_offsets[job_id] = offset
        except (ValueError, KeyError, TypeError):
            # a record the log parsed but the store cannot replay; skip
            # it — at worst the job replays one state older than it was
            pass

    def _append(self, kind: str, payload: Dict) -> int:
        """Write one line; returns its byte offset. Caller holds the lock."""
        return self._log.append({"type": kind, "job": payload},
                                allow_nan=False)

    # -- the write API --------------------------------------------------
    def submit(self, spec: JobSpec) -> JobStatus:
        """Record a new job: its spec plus an initial ``queued`` status."""
        with self._lock:
            if spec.id in self._specs:
                raise ValueError(f"job id {spec.id!r} already exists")
            status = JobStatus(id=spec.id, state="queued",
                               total=spec.total_requests(),
                               submitted_at=spec.submitted_at)
            self._append("spec", spec.to_dict())
            self._append("status", status.to_dict())
            self._specs[spec.id] = spec
            self._statuses[spec.id] = status
            self._order.append(spec.id)
            return status

    def update(self, status: JobStatus) -> None:
        """Persist a status transition (queued → running → terminal)."""
        with self._lock:
            if status.id not in self._specs:
                raise KeyError(f"unknown job id {status.id!r}")
            self._append("status", status.to_dict())
            self._statuses[status.id] = status

    def finish(self, status: JobStatus, result: Optional[JobResult]) -> None:
        """Persist a terminal status and (for ``done`` jobs) the result.

        The result line goes first: if the process dies between the two
        appends, the replayed job shows ``running`` (and recovery marks
        it ``crashed``) rather than claiming ``done`` without a result.
        """
        if not status.terminal:
            raise ValueError(f"finish() needs a terminal state, "
                             f"got {status.state!r}")
        with self._lock:
            if status.id not in self._specs:
                raise KeyError(f"unknown job id {status.id!r}")
            if result is not None:
                offset = self._append("result", result.to_dict())
                self._result_offsets[status.id] = offset
            self._append("status", status.to_dict())
            self._statuses[status.id] = status

    # -- the read API ---------------------------------------------------
    def spec(self, job_id: str) -> Optional[JobSpec]:
        with self._lock:
            return self._specs.get(job_id)

    def status(self, job_id: str) -> Optional[JobStatus]:
        with self._lock:
            return self._statuses.get(job_id)

    def result(self, job_id: str) -> Optional[JobResult]:
        """The stored result, read back lazily from its byte offset."""
        with self._lock:
            offset = self._result_offsets.get(job_id)
            if offset is None:
                return None
            entry = self._log.read_at(offset)
        if entry is None:  # defensive: index said yes, disk disagrees
            return None
        try:
            return JobResult.from_dict(entry["job"])
        except (ValueError, KeyError, TypeError):
            return None

    def jobs(self) -> List[str]:
        """Every known job id, in submission order."""
        with self._lock:
            return list(self._order)

    def __len__(self) -> int:
        with self._lock:
            return len(self._specs)

    def __contains__(self, job_id: str) -> bool:
        with self._lock:
            return job_id in self._specs

    def counts(self) -> Dict[str, int]:
        """How many jobs sit in each state (for ``/v1/stats``)."""
        with self._lock:
            out: Dict[str, int] = {}
            for status in self._statuses.values():
                out[status.state] = out.get(status.state, 0) + 1
            return out

    # -- restart --------------------------------------------------------
    def recover(self) -> Tuple[List[str], List[str]]:
        """Reconcile jobs left over by a dead server.

        Returns ``(requeued, crashed)``: ids still ``queued`` (the new
        dispatcher should enqueue them again) and ids that were
        ``running`` when the previous process died — those are marked
        ``crashed`` durably, because the server cannot know how much of
        a half-run batch completed and must not silently re-run it.
        """
        import dataclasses

        requeued: List[str] = []
        crashed: List[str] = []
        with self._lock:
            for job_id in self._order:
                status = self._statuses.get(job_id)
                if status is None:
                    # spec line survived but its status line was torn
                    # off by the crash: treat as freshly queued
                    status = JobStatus(
                        id=job_id, state="queued",
                        total=self._specs[job_id].total_requests(),
                        submitted_at=self._specs[job_id].submitted_at)
                    self._append("status", status.to_dict())
                    self._statuses[job_id] = status
                if status.state == "queued":
                    requeued.append(job_id)
                elif status.state == "running":
                    tombstone = dataclasses.replace(
                        status, state="crashed",
                        error="server terminated while the job was running")
                    self._append("status", tombstone.to_dict())
                    self._statuses[job_id] = tombstone
                    crashed.append(job_id)
        return requeued, crashed

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
