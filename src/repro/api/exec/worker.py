"""The queue backend's worker loop — the ``repro worker`` engine.

A worker is deliberately dumb: attach to a spool directory, claim the
oldest pending request (atomic rename — see
:class:`~repro.api.exec.queue.Spool`), run it through the very same
:func:`~repro.api.exec.backends.solve_with_policy` every in-process
backend uses, land the result envelope in ``done/``, repeat. All policy
semantics (timeouts, retries, structured ``timeout`` failures) therefore
hold bit-for-bit on every backend.

Liveness is a heartbeat: a daemon thread touches the worker's lease file
every quarter lease interval. If the worker is SIGKILLed the beats stop,
the lease expires, and the parent re-enqueues its claims — requests are
re-run, never lost.

A worker never touches the result cache: the parent's batch façade
looks every request up before spooling it and records every result it
reads back, so the worker only ever sees misses.

Unexpected exceptions (bugs, corrupted spool payloads) are captured into
a structured ``FailureInfo(kind="WorkerError")`` envelope and landed like
any other result: the parent never hangs on a request whose worker hit a
crash it could catch. (Crashes it *cannot* catch — SIGKILL, interpreter
aborts — are what leases are for.)
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from typing import Optional

from repro.api.envelopes import ScheduleRequest
from repro.api.exec.backends import failure_result, solve_with_policy
from repro.api.exec.queue import DEFAULT_LEASE_S, Spool

#: failure kind of a request whose worker hit an unexpected exception
WORKER_ERROR_KIND = "WorkerError"


def _solve_one(payload: dict) -> "ScheduleResult":
    """One claimed payload → one result envelope."""
    try:
        request = ScheduleRequest.from_dict(payload["request"])
    except Exception as exc:
        raise RuntimeError(
            f"unreadable request payload in job {payload.get('id')!r}: "
            f"{exc}") from exc
    return solve_with_policy(request)


def run_worker(spool_dir: str,
               worker_id: Optional[str] = None,
               poll_s: float = 0.1,
               lease_timeout_s: float = DEFAULT_LEASE_S,
               max_idle_s: Optional[float] = None,
               once: bool = False) -> int:
    """Claim-and-solve loop over ``spool_dir``; returns jobs completed.

    Runs until the spool's stop marker appears, ``max_idle_s`` elapses
    without a claim (``None`` = wait forever), or — with ``once=True`` —
    the first claim completes. ``lease_timeout_s`` only sizes the
    heartbeat interval (expiry is judged by the parent).
    """
    if worker_id is None:
        worker_id = f"w-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    spool = Spool(spool_dir, lease_timeout_s=lease_timeout_s)

    # beat at a quarter lease: three missed beats of headroom before the
    # parent declares this worker dead
    spool.heartbeat(worker_id)
    stop_beating = threading.Event()
    interval = min(1.0, max(0.02, lease_timeout_s / 4.0))

    def beat() -> None:
        while not stop_beating.wait(interval):
            try:
                spool.heartbeat(worker_id)
            except OSError:  # spool removed under us: the loop will exit
                return

    heart = threading.Thread(target=beat, daemon=True,
                             name="repro-queue-heartbeat")
    heart.start()

    completed = 0
    idle_since = time.time()
    try:
        while True:
            if spool.stop_requested():
                break
            try:
                claim = spool.claim(worker_id)
            except FileNotFoundError:  # spool deleted: parent is gone
                break
            if claim is None:
                if max_idle_s is not None \
                        and time.time() - idle_since > max_idle_s:
                    break
                time.sleep(poll_s)
                continue
            job_id, payload = claim
            try:
                result = _solve_one(payload)
            except BaseException as exc:
                # land *something* structured — the parent must never
                # hang because this worker hit a bug it could catch
                try:
                    request = ScheduleRequest.from_dict(payload["request"])
                    result = failure_result(
                        request, WORKER_ERROR_KIND,
                        f"{type(exc).__name__}: {exc}")
                except BaseException:
                    # even the payload is beyond saving; leave the claim
                    # for maintain() to reclaim/tombstone
                    raise exc
            spool.write_result(job_id, result, worker_id)
            spool.finish(worker_id, job_id)
            completed += 1
            idle_since = time.time()
            if once:
                break
    finally:
        stop_beating.set()
    return completed
