"""``queue`` — a stdlib-only filesystem work-queue execution backend.

Where ``process`` parallelizes inside one machine-local pool, the
queue backend decouples *submission* from *execution* entirely: the
parent spools each :class:`~repro.api.envelopes.ScheduleRequest` as a
JSON file into a shared **spool directory**, and independent worker
processes (``repro worker SPOOL_DIR`` — on this machine, or on any
machine sharing the filesystem) claim, solve, and land results. The
parent's :class:`Submission` handles simply poll for the result files,
so the batch façade's ordering/streaming/cache contracts hold unchanged.

Spool layout (all transitions are atomic renames on one filesystem)::

    SPOOL/
      pending/     submitted requests, one JSON file each (FIFO by name)
      claimed/<worker-id>/   requests a worker is executing
      claimed/<worker-id>.lease  worker heartbeat (mtime = last beat)
      done/        result envelopes, named after their request file
      tombstones/  poison requests parked after too many reclaims
      tmp/         staging for atomic writes
      stop         drain marker: workers exit when it appears

Robustness is first-class:

* **claims are atomic** — a worker takes a request by renaming it from
  ``pending/`` into its own ``claimed/`` directory; two workers can
  never run the same file;
* **leases** — a worker heartbeats its lease file while alive; the
  parent (via :meth:`Spool.maintain`, driven from the submission polls)
  re-enqueues every claim whose lease has expired, so a SIGKILLed
  worker's requests re-run instead of being lost;
* **poison tombstones** — a request reclaimed more than ``max_reclaims``
  times (it keeps killing workers) is parked in ``tombstones/`` and
  completed with a structured ``FailureInfo(kind="poison")`` so the
  sweep converges instead of crash-looping.

``ExecutionPolicy`` timeout/retry semantics are enforced *in the worker*
through the same :func:`~repro.api.exec.backends.solve_with_policy` every
other backend uses, so a timed-out request reports the identical
structured envelope. The result cache stays with the parent: the batch
façade serves hits before anything is spooled and records each result
it reads back, so workers never open a cache.

By default the backend is self-contained: ``open(workers)`` creates a
private spool under the system temp directory and spawns ``workers``
local ``repro worker`` subprocesses (respawned if they die, within a
budget). Set ``REPRO_QUEUE_DIR`` to use a fixed spool directory and
``REPRO_QUEUE_SPAWN=0`` to attach to externally managed workers instead
— the CI kill-one-worker leg runs exactly that way.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from repro.api.envelopes import ScheduleRequest, ScheduleResult

#: fixed spool directory (default: a fresh private temp dir per batch)
QUEUE_DIR_ENV = "REPRO_QUEUE_DIR"
#: "0"/"false" disables spawning local workers (attach to external ones)
QUEUE_SPAWN_ENV = "REPRO_QUEUE_SPAWN"
#: lease expiry in seconds (default 15); workers heartbeat at a quarter
QUEUE_LEASE_ENV = "REPRO_QUEUE_LEASE_S"
#: reclaims before a request is tombstoned as poison (default 3)
QUEUE_RECLAIMS_ENV = "REPRO_QUEUE_MAX_RECLAIMS"

DEFAULT_LEASE_S = 15.0
DEFAULT_MAX_RECLAIMS = 3
#: failure kind of a tombstoned request
POISON_KIND = "poison"

_PENDING = "pending"
_CLAIMED = "claimed"
_DONE = "done"
_TOMBSTONES = "tombstones"
_TMP = "tmp"
_LOGS = "logs"
_STOP = "stop"
_LEASE_SUFFIX = ".lease"


def _env_number(name: str, default, cast=float):
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return cast(raw)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ValueError(f"{name}={raw!r} is not {kind}")


def _check_knobs(lease_timeout_s: float, max_reclaims: int) -> None:
    if not lease_timeout_s > 0:
        raise ValueError(
            f"lease_timeout_s must be positive, got {lease_timeout_s!r}")
    if max_reclaims < 0:
        raise ValueError(f"max_reclaims must be >= 0, got {max_reclaims!r}")


def lease_from_env() -> float:
    """The lease ``REPRO_QUEUE_LEASE_S`` sets (default 15 s), refused
    when it is not a positive number — the one reading that parents and
    attached workers share."""
    lease = _env_number(QUEUE_LEASE_ENV, DEFAULT_LEASE_S)
    _check_knobs(lease, DEFAULT_MAX_RECLAIMS)
    return lease


def _check_spool_dir(root: str) -> None:
    if os.path.exists(root) and not os.path.isdir(root):
        raise NotADirectoryError(f"queue spool {root!r} is not a directory")


class Spool:
    """The on-disk queue: atomic job files plus lease bookkeeping.

    One ``Spool`` object is cheap — it holds only the root path and the
    lease/reclaim knobs; all state lives on disk, so parents and workers
    in different processes coordinate purely through renames.
    """

    def __init__(self, root: str,
                 lease_timeout_s: float = DEFAULT_LEASE_S,
                 max_reclaims: int = DEFAULT_MAX_RECLAIMS):
        if not root:
            raise ValueError("Spool needs a directory; got an empty path")
        self.root = str(root)
        _check_spool_dir(self.root)
        _check_knobs(lease_timeout_s, max_reclaims)
        self.lease_timeout_s = float(lease_timeout_s)
        self.max_reclaims = int(max_reclaims)
        self._seq = 0
        for sub in (_PENDING, _CLAIMED, _DONE, _TOMBSTONES, _TMP, _LOGS):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)

    # -- path helpers ---------------------------------------------------
    def _dir(self, sub: str) -> str:
        return os.path.join(self.root, sub)

    def _pending_path(self, job_id: str) -> str:
        return os.path.join(self.root, _PENDING, job_id + ".json")

    def _done_path(self, job_id: str) -> str:
        return os.path.join(self.root, _DONE, job_id + ".json")

    def _lease_path(self, worker_id: str) -> str:
        return os.path.join(self.root, _CLAIMED, worker_id + _LEASE_SUFFIX)

    def _claim_dir(self, worker_id: str) -> str:
        return os.path.join(self.root, _CLAIMED, worker_id)

    def _atomic_write(self, path: str, payload: Dict[str, Any]) -> None:
        """Land ``payload`` at ``path`` in one rename (same filesystem)."""
        fd, tmp = tempfile.mkstemp(dir=self._dir(_TMP), suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True, allow_nan=False)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    @staticmethod
    def _load(path: str) -> Optional[Dict[str, Any]]:
        """The file's JSON payload, or None if it vanished or is torn.

        Job/result files only ever appear via ``os.replace``, so a torn
        read means the file was *removed* between listing and opening —
        callers treat both the same way (skip, retry later).
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    # -- parent side ----------------------------------------------------
    def submit(self, request: ScheduleRequest) -> str:
        """Spool one request into ``pending/``; returns its job id.

        Job ids sort in submission order (per parent), so idle workers
        drain the spool roughly FIFO.
        """
        self._seq += 1
        job_id = f"{self._seq:08d}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._atomic_write(self._pending_path(job_id), {
            "id": job_id,
            "request": request.to_dict(),
            "reclaims": 0,
        })
        return job_id

    def read_result(self, job_id: str) -> Optional[ScheduleResult]:
        payload = self._load(self._done_path(job_id))
        if payload is None:
            return None
        return ScheduleResult.from_dict(payload["result"])

    def has_result(self, job_id: str) -> bool:
        return os.path.exists(self._done_path(job_id))

    def maintain(self) -> int:
        """Reclaim expired claims; tombstone poison requests.

        For every worker whose lease is stale (no heartbeat for
        ``lease_timeout_s`` — the worker was SIGKILLed, lost power, or
        hangs hard), each claimed request goes back to ``pending/`` with
        its reclaim counter bumped; a request over ``max_reclaims`` is
        parked in ``tombstones/`` and completed with a structured
        ``poison`` failure so the parent never hangs on it. Returns the
        number of requests re-enqueued or tombstoned.
        """
        moved = 0
        claimed_root = self._dir(_CLAIMED)
        try:
            names = os.listdir(claimed_root)
        except FileNotFoundError:
            return 0
        now = time.time()
        for name in names:
            claim_dir = os.path.join(claimed_root, name)
            if name.endswith(_LEASE_SUFFIX) or not os.path.isdir(claim_dir):
                continue
            lease = self._lease_path(name)
            try:
                age = now - os.path.getmtime(lease)
            except OSError:
                age = float("inf")  # no lease file at all: treat as dead
            if age <= self.lease_timeout_s:
                continue
            for job_file in sorted(os.listdir(claim_dir)):
                moved += self._reclaim(os.path.join(claim_dir, job_file))
            # drop the dead worker's empty dir + lease so later scans
            # skip it; a *live* worker re-creates both on its next claim
            try:
                os.rmdir(claim_dir)
                os.unlink(lease)
            except OSError:
                pass
        return moved

    def _reclaim(self, path: str) -> int:
        payload = self._load(path)
        if payload is None:
            return 0
        payload["reclaims"] = int(payload.get("reclaims", 0)) + 1
        job_id = payload["id"]
        if payload["reclaims"] > self.max_reclaims:
            # poison: the request has now taken out max_reclaims+1
            # workers — park it and complete the submission structurally
            from repro.api.exec.backends import failure_result  # imports us

            request = ScheduleRequest.from_dict(payload["request"])
            result = failure_result(
                request, POISON_KIND,
                f"request reclaimed {payload['reclaims']} times from "
                f"expired worker leases; tombstoned as poison")
            self.write_result(job_id, result, worker_id="(reclaimer)")
            self._atomic_write(
                os.path.join(self._dir(_TOMBSTONES), job_id + ".json"),
                payload)
            try:
                os.unlink(path)
            except OSError:
                pass
            return 1
        # back to pending under its original name: FIFO position and
        # submission identity are preserved across reclaims
        self._atomic_write(self._pending_path(job_id), payload)
        try:
            os.unlink(path)
        except OSError:
            pass
        return 1

    def request_stop(self) -> None:
        """Ask every worker to drain and exit (idempotent)."""
        with open(os.path.join(self.root, _STOP), "w", encoding="utf-8"):
            pass

    def clear_stop(self) -> None:
        try:
            os.unlink(os.path.join(self.root, _STOP))
        except OSError:
            pass

    def stop_requested(self) -> bool:
        return os.path.exists(os.path.join(self.root, _STOP))

    def counts(self) -> Dict[str, int]:
        """Observability: files per stage (pending/claimed/done/tombstones)."""
        out = {}
        for sub in (_PENDING, _DONE, _TOMBSTONES):
            try:
                out[sub] = len([n for n in os.listdir(self._dir(sub))
                                if n.endswith(".json")])
            except FileNotFoundError:
                out[sub] = 0
        claimed = 0
        try:
            for name in os.listdir(self._dir(_CLAIMED)):
                path = os.path.join(self._dir(_CLAIMED), name)
                if os.path.isdir(path):
                    claimed += len(os.listdir(path))
        except FileNotFoundError:
            pass
        out[_CLAIMED] = claimed
        return out

    # -- worker side ----------------------------------------------------
    def heartbeat(self, worker_id: str) -> None:
        """Refresh the worker's lease (creating it on the first beat)."""
        lease = self._lease_path(worker_id)
        try:
            os.utime(lease)
        except OSError:
            with open(lease, "w", encoding="utf-8"):
                pass

    def claim(self, worker_id: str) -> Optional[Tuple[str, Dict[str, Any]]]:
        """Atomically take the oldest pending request, or ``None``.

        The rename either succeeds (this worker owns the file) or raises
        because a sibling won the race — in which case the next candidate
        is tried. The lease is refreshed *before* the rename so the
        parent can never observe a claim without a live lease.
        """
        claim_dir = self._claim_dir(worker_id)
        os.makedirs(claim_dir, exist_ok=True)
        self.heartbeat(worker_id)
        pending = self._dir(_PENDING)
        try:
            names = sorted(n for n in os.listdir(pending)
                           if n.endswith(".json"))
        except FileNotFoundError:
            return None
        for name in names:
            target = os.path.join(claim_dir, name)
            try:
                os.rename(os.path.join(pending, name), target)
            except OSError:
                continue  # a sibling claimed it first
            payload = self._load(target)
            if payload is None:  # unreadable claim: hand to maintain()
                continue
            return payload["id"], payload
        return None

    def write_result(self, job_id: str, result: ScheduleResult,
                     worker_id: str) -> None:
        """Land a result envelope (idempotent: last writer wins, but all
        writers of one job hold bit-identical deterministic results)."""
        self._atomic_write(self._done_path(job_id), {
            "id": job_id,
            "worker": worker_id,
            "result": result.to_dict(),
        })

    def finish(self, worker_id: str, job_id: str) -> None:
        """Drop the claim file once its result has landed."""
        try:
            os.unlink(os.path.join(self._claim_dir(worker_id),
                                   job_id + ".json"))
        except OSError:
            pass  # the parent reclaimed it meanwhile; results are idempotent


class _SpoolSubmission:
    """Parent-side handle: polls ``done/`` and drives spool maintenance."""

    __slots__ = ("_backend", "_job_id", "_result")

    def __init__(self, backend: "QueueBackend", job_id: str):
        self._backend = backend
        self._job_id = job_id
        self._result = None

    def done(self) -> bool:
        if self._result is not None:
            return True
        self._backend._maintain()
        return self._backend._spool.has_result(self._job_id)

    def result(self) -> ScheduleResult:
        if self._result is None:
            self._result = self._backend._await(self._job_id)
        return self._result


class QueueBackend:
    """Spool-directory execution with leased, restartable workers:
    independent ``repro worker`` processes claim spooled requests and
    land results, and leases reclaim killed workers.

    Never auto-routed — select it explicitly (``backend=\"queue\"``,
    ``--backend queue``, ``REPRO_BACKEND=queue``, or a scenario's
    ``execution.backend``). Results cannot carry a live mapping back
    (they cross a process boundary as JSON), exactly like cache hits;
    sweeps (``want_mapping=False``) are its intended workload. Custom
    algorithms must be importable by the worker processes — registrations
    made only in the parent's memory do not exist in a fresh interpreter.
    """

    name = "queue"

    def __init__(self, spool_dir: Optional[str] = None,
                 spawn: Optional[bool] = None,
                 lease_timeout_s: Optional[float] = None,
                 max_reclaims: Optional[int] = None,
                 poll_s: float = 0.02):
        if spool_dir is None:
            spool_dir = os.environ.get(QUEUE_DIR_ENV) or None
        if spool_dir is not None:
            _check_spool_dir(spool_dir)
        if spawn is None:
            spawn = os.environ.get(QUEUE_SPAWN_ENV, "1").strip().lower() \
                not in ("0", "false", "no")
        if lease_timeout_s is None:
            lease_timeout_s = lease_from_env()
        if max_reclaims is None:
            max_reclaims = _env_number(QUEUE_RECLAIMS_ENV,
                                        DEFAULT_MAX_RECLAIMS, int)
        _check_knobs(lease_timeout_s, max_reclaims)
        self._spool_dir = spool_dir
        self._owns_dir = False
        self._spawn = bool(spawn)
        self._lease_timeout_s = float(lease_timeout_s)
        self._max_reclaims = int(max_reclaims)
        self._poll_s = float(poll_s)
        self._spool: Optional[Spool] = None
        self._workers: List[subprocess.Popen] = []
        self._respawn_budget = 0
        self._next_worker = 0
        self._last_maintain = 0.0
        self._closing = False

    # -- ExecutionBackend protocol --------------------------------------
    def open(self, workers: int) -> None:
        if self._spool_dir is None:
            self._spool_dir = tempfile.mkdtemp(prefix="repro-queue-")
            self._owns_dir = True
        self._spool = Spool(self._spool_dir,
                            lease_timeout_s=self._lease_timeout_s,
                            max_reclaims=self._max_reclaims)
        # a previous batch over the same fixed dir left its drain marker
        self._spool.clear_stop()
        self._closing = False
        if self._spawn:
            n = max(1, workers)
            # each genuine crash costs one respawn; poison tombstoning
            # bounds crashes per request, this bounds them per batch
            self._respawn_budget = n * (self._max_reclaims + 1)
            for _ in range(n):
                self._spawn_worker()

    def submit(self, request: ScheduleRequest) -> _SpoolSubmission:
        return _SpoolSubmission(self, self._spool.submit(request))

    def close(self) -> None:
        self._closing = True
        if self._spool is not None and self._spawn:
            # spawned workers are ours to drain; attached ones belong to
            # whoever started them (other parents may be sharing the spool)
            self._spool.request_stop()
        for proc in self._workers:
            if proc.poll() is None:
                proc.terminate()
        deadline = time.time() + 5.0
        for proc in self._workers:
            try:
                proc.wait(timeout=max(0.1, deadline - time.time()))
            except subprocess.TimeoutExpired:
                proc.kill()  # SIGSTOPped or wedged: no mercy on close
                proc.wait()
        self._workers = []
        if self._owns_dir and self._spool_dir:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
            self._spool_dir = None
            self._owns_dir = False
        self._spool = None

    # -- internals ------------------------------------------------------
    def _spawn_worker(self) -> None:
        self._next_worker += 1
        worker_id = f"w{self._next_worker}-{os.getpid()}"
        cmd = [sys.executable, "-m", "repro", "worker", self._spool_dir,
               "--id", worker_id,
               "--lease", f"{self._lease_timeout_s:g}"]
        log_path = os.path.join(self._spool_dir, _LOGS, worker_id + ".log")
        with open(log_path, "ab") as log:
            self._workers.append(subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL))

    def _maintain(self) -> None:
        """Reclaim expired leases and keep the spawned fleet alive.

        Rate-limited: driven from every submission poll, but a scan only
        actually runs every quarter lease (bounded below so tests with
        tiny leases still reclaim promptly).
        """
        now = time.time()
        interval = min(1.0, max(0.05, self._lease_timeout_s / 4.0))
        if now - self._last_maintain < interval:
            return
        self._last_maintain = now
        self._spool.maintain()
        if not self._spawn or self._closing:
            return
        alive = []
        dead = 0
        for proc in self._workers:
            if proc.poll() is None:
                alive.append(proc)
            else:
                dead += 1
        self._workers = alive
        for _ in range(dead):
            if self._respawn_budget <= 0:
                break
            self._respawn_budget -= 1
            self._spawn_worker()

    def _await(self, job_id: str) -> ScheduleResult:
        while True:
            result = self._spool.read_result(job_id)
            if result is not None:
                return result
            self._maintain()
            if (self._spawn and not self._workers
                    and self._respawn_budget <= 0):
                raise RuntimeError(
                    f"queue backend: all spawned workers died and the "
                    f"respawn budget is exhausted; job {job_id} cannot "
                    f"complete (see {os.path.join(self._spool_dir, _LOGS)})")
            time.sleep(self._poll_s)
