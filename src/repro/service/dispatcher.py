"""The service's job engine: one thread pool, one queue.

The dispatcher owns the job lifecycle between "accepted" and "terminal".
Each accepted job is handed straight to a dedicated
:class:`~concurrent.futures.ThreadPoolExecutor` of ``workers`` threads
(``loop.run_in_executor``); the pool's own FIFO is the job queue. The
solve itself is plain blocking Python, so the event loop stays free to
answer polls and stream events while jobs grind. Inside the worker
thread a job is exactly an offline run: the stored payload rehydrates to
:class:`~repro.api.envelopes.ScheduleRequest` envelopes and streams
through :func:`~repro.api.batch.iter_solve_batch` with the same cache,
backend routing, and :class:`~repro.api.exec.policy.ExecutionPolicy`
enforcement as ``repro scenario run`` — which is what makes the
service's records bit-identical to offline ones (modulo measured
runtimes).

Concurrency notes: every worker thread drives the one shared
:class:`~repro.api.cache.CacheBackend` directly — the backend's own lock
serializes its get/put/stats/close, and the job store has its own lock —
and all cross-thread signalling into asyncio-land goes through
``loop.call_soon_threadsafe``.

The :meth:`hold`/:meth:`release` gate exists for the load test: with the
gate held, accepted jobs pile up (workers park before touching a job),
so "N concurrent submissions in the system" is exact and reproducible;
releasing the gate starts the drain. The gate is open by default and
normal service operation never touches it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.service.jobs import JobResult, JobSpec, JobStatus
from repro.service.store import JobStore

class ServiceDraining(RuntimeError):
    """Raised on submission once shutdown has begun (the HTTP 503)."""


class Dispatcher:
    """Runs accepted jobs; the single source of truth for live progress.

    ``backend``/``parallel`` are the service-wide execution defaults; a
    scenario job whose spec carries an ``execution`` block falls back to
    that block's ``backend``/``parallel`` exactly as ``run_scenario``
    does when no explicit argument overrides it.
    """

    def __init__(self, store: JobStore, cache=None,
                 backend: Optional[str] = None, workers: int = 2,
                 parallel: int = 0):
        self.store = store
        self.cache = cache
        self.backend = backend
        self.workers = max(1, int(workers))
        self.parallel = int(parallel)
        self.started_at = time.time()

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        #: accepted jobs' pool futures, until each ends (loop thread)
        self._futures: Set[asyncio.Future] = set()
        self._draining = False

        self._gate = threading.Event()
        self._gate.set()  # open unless the load test holds it

        # live state, guarded by _mutex (read from the loop thread,
        # written from worker threads)
        self._mutex = threading.Lock()
        self._live: Dict[str, Dict[str, int]] = {}   # running jobs' ticks
        self._in_flight = 0        # jobs started, not yet terminal
        self._active = 0           # accepted, not yet terminal
        self._peak_active = 0      # max of _active over the lifetime
        self._completed_jobs = 0
        self._completed_requests = 0
        self._per_backend: Dict[str, Dict[str, float]] = {}

        # event-stream subscribers: job id -> list of asyncio queues
        # (touched only from the loop thread)
        self._subscribers: Dict[str, List[asyncio.Queue]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> Tuple[List[str], List[str]]:
        """Recover the store, then run every requeued job.

        Returns the store's ``(requeued, crashed)`` reconciliation so the
        server can log what a restart found.
        """
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve")
        requeued, crashed = self.store.recover()
        for job_id in requeued:
            self._enqueue(job_id)
        return requeued, crashed

    async def drain(self) -> None:
        """Stop accepting jobs, then wait until every accepted job ends."""
        self._draining = True
        self._gate.set()  # a held gate must not deadlock shutdown
        if self._futures:
            await asyncio.wait(self._futures)

    async def stop(self) -> None:
        """Shut the thread pool down (after :meth:`drain`); jobs that
        never started stay ``queued`` in the store for the next start."""
        self._draining = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    @property
    def draining(self) -> bool:
        return self._draining

    # -- the load-test gate --------------------------------------------
    def hold(self) -> None:
        """Park the workers: accepted jobs queue up but none starts."""
        self._gate.clear()

    def release(self) -> None:
        """Re-open the gate; parked workers start draining the queue."""
        self._gate.set()

    # ------------------------------------------------------------------
    # submission (loop thread)
    # ------------------------------------------------------------------
    def submit(self, kind: str, payload: Dict[str, Any],
               tags: Optional[Dict[str, Any]] = None) -> JobStatus:
        """Validate, persist, and enqueue one job; returns its status.

        Validation happens *here*, before the job is accepted: the
        payload must rebuild into its envelope (``ScheduleRequest`` /
        ``ScenarioSpec``), so a stored spec is always runnable and a
        malformed submission is a 400, not a failed job. Raises
        :class:`ServiceDraining` once shutdown has begun.
        """
        if self._draining:
            raise ServiceDraining("server is draining; not accepting jobs")
        spec = JobSpec(id=uuid.uuid4().hex, kind=kind, payload=payload,
                       submitted_at=time.time(), tags=tags or {})
        spec.total_requests()  # validates the payload shape cheaply
        if kind == "schedule":
            # deep-validate: a single request must rehydrate completely
            spec.build_requests()
        else:
            from repro.api.scenario import ScenarioSpec
            ScenarioSpec.from_dict(spec.payload)
        status = self.store.submit(spec)
        self._enqueue(spec.id)
        return status

    def _enqueue(self, job_id: str) -> None:
        """Count one accepted job and hand it to the pool (loop thread)."""
        assert self._pool is not None, "dispatcher not started"
        with self._mutex:
            self._active += 1
            self._peak_active = max(self._peak_active, self._active)
        future = self._loop.run_in_executor(self._pool, self._run_job, job_id)
        self._futures.add(future)
        future.add_done_callback(self._futures.discard)

    # ------------------------------------------------------------------
    # views (loop thread)
    # ------------------------------------------------------------------
    def status_view(self, job_id: str) -> Optional[JobStatus]:
        """The stored status overlaid with live progress counters."""
        status = self.store.status(job_id)
        if status is None:
            return None
        with self._mutex:
            live = self._live.get(job_id)
            if live is not None and status.state == "running":
                status = dataclasses.replace(status, **live)
        return status

    def stats(self) -> Dict[str, Any]:
        """The ``/v1/stats`` payload."""
        from repro.api.cache import describe_cache

        now = time.time()
        with self._mutex:
            per_backend = {
                name: {
                    "jobs": int(entry["jobs"]),
                    "requests": int(entry["requests"]),
                    "busy_s": round(entry["busy_s"], 6),
                    "requests_per_s": (
                        round(entry["requests"] / entry["busy_s"], 3)
                        if entry["busy_s"] > 0 else None),
                }
                for name, entry in sorted(self._per_backend.items())
            }
            snapshot = {
                "uptime_s": round(now - self.started_at, 3),
                "workers": self.workers,
                "draining": self._draining,
                "queue_depth": self._active - self._in_flight,
                "in_flight": self._in_flight,
                "active": self._active,
                "peak_active": self._peak_active,
                "completed_jobs": self._completed_jobs,
                "completed_requests": self._completed_requests,
                "backends": per_backend,
            }
        snapshot["jobs"] = self.store.counts()
        snapshot["cache"] = (describe_cache(self.cache)
                             if self.cache is not None else None)
        return snapshot

    # -- event streams --------------------------------------------------
    def subscribe(self, job_id: str) -> asyncio.Queue:
        """An asyncio queue of progress events for one job (loop thread).

        Terminal jobs get their end event immediately, so late
        subscribers always see a finite stream.
        """
        queue: asyncio.Queue = asyncio.Queue()
        status = self.status_view(job_id)
        if status is not None and status.terminal:
            queue.put_nowait(self._end_event(status))
            queue.put_nowait(None)
        else:
            self._subscribers.setdefault(job_id, []).append(queue)
        return queue

    def unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        listeners = self._subscribers.get(job_id)
        if listeners and queue in listeners:
            listeners.remove(queue)
            if not listeners:
                del self._subscribers[job_id]

    def _publish(self, job_id: str, event: Dict[str, Any],
                 final: bool) -> None:
        """Deliver one event to every listener (runs on the loop thread)."""
        for queue in self._subscribers.get(job_id, ()):
            queue.put_nowait(event)
            if final:
                queue.put_nowait(None)
        if final:
            self._subscribers.pop(job_id, None)

    def _post(self, job_id: str, event: Dict[str, Any],
              final: bool = False) -> None:
        """Thread-safe publish from a worker thread."""
        if self._loop is not None and not self._loop.is_closed():
            self._loop.call_soon_threadsafe(
                self._publish, job_id, event, final)

    @staticmethod
    def _end_event(status: JobStatus) -> Dict[str, Any]:
        return {"event": "end", "job": status.id, "state": status.state,
                "completed": status.completed, "total": status.total,
                "ok": status.ok, "failed": status.failed,
                "timeouts": status.timeouts, "error": status.error}

    # ------------------------------------------------------------------
    # the jobs (worker threads)
    # ------------------------------------------------------------------
    def _run_job(self, job_id: str) -> None:
        """Execute one job end to end (worker thread)."""
        self._gate.wait()
        spec = self.store.spec(job_id)
        status = self.store.status(job_id)
        if spec is None or status is None or status.state != "queued":
            return  # recovered tombstone; nothing to do
        started = time.time()
        status = dataclasses.replace(status, state="running",
                                     started_at=started)
        self.store.update(status)
        with self._mutex:
            self._in_flight += 1
            self._live[job_id] = {"completed": 0, "ok": 0, "failed": 0,
                                  "timeouts": 0}
        self._post(job_id, {"event": "start", "job": job_id,
                            "total": status.total})
        try:
            result, backend_used = self._solve(spec, status)
            final = dataclasses.replace(
                status, state="done",
                completed=len(result.results), ok=result.n_ok,
                failed=result.n_failed, timeouts=result.n_timeout,
                finished_at=time.time())
            self.store.finish(final, result)
        except Exception as exc:  # noqa: BLE001 — a job must never kill its worker
            result, backend_used = None, None
            with self._mutex:
                live = dict(self._live.get(job_id, {}))
            final = dataclasses.replace(
                status, state="failed", finished_at=time.time(),
                error=f"{type(exc).__name__}: {exc}", **live)
            self.store.finish(final, None)
        finally:
            with self._mutex:
                self._in_flight -= 1
                self._active -= 1
                self._live.pop(job_id, None)
                if final.state == "done":
                    self._completed_jobs += 1
                    self._completed_requests += final.completed
                    entry = self._per_backend.setdefault(
                        backend_used or "auto",
                        {"jobs": 0, "requests": 0, "busy_s": 0.0})
                    entry["jobs"] += 1
                    entry["requests"] += final.completed
                    entry["busy_s"] += final.finished_at - started
            self._post(job_id, self._end_event(final), final=True)

    def _solve(self, spec: JobSpec,
               status: JobStatus) -> Tuple[JobResult, str]:
        """The offline-identical core of a job (worker thread)."""
        from repro.api.batch import iter_solve_batch, resolve_parallel
        from repro.api.exec.routing import route

        requests = spec.build_requests()
        backend, parallel = self.backend, self.parallel
        if spec.kind == "scenario":
            # same fallback order as run_scenario: explicit service
            # settings first, then the spec's execution block
            from repro.api.scenario import ScenarioSpec
            execution = ScenarioSpec.from_dict(spec.payload).execution
            if execution is not None:
                if backend is None:
                    backend = execution.backend
                if not parallel and execution.parallel is not None:
                    parallel = execution.parallel
        resolved = route(backend=backend, workers=resolve_parallel(parallel))

        def tick(index, request, result):
            failed = result.failure is not None
            timeout = failed and result.failure.kind == "timeout"
            with self._mutex:
                live = self._live.get(spec.id)
                if live is not None:
                    live["completed"] += 1
                    live["ok"] += 0 if failed else 1
                    live["failed"] += 1 if failed else 0
                    live["timeouts"] += 1 if timeout else 0
            self._post(spec.id, {
                "event": "tick", "job": spec.id, "index": index,
                "completed": index + 1, "total": status.total,
                "algorithm": result.algorithm, "workflow": result.workflow,
                "makespan": (None if result.makespan == float("inf")
                             else result.makespan),
                "ok": not failed})

        before = self.cache.stats() if self.cache is not None else None
        t0 = time.perf_counter()
        records = [r.to_dict() for r in iter_solve_batch(
            requests, parallel=parallel, progress=tick,
            cache=self.cache, backend=resolved)]
        elapsed = time.perf_counter() - t0
        after = self.cache.stats() if self.cache is not None else None

        n_failed = sum(1 for r in records if r["failure"] is not None)
        n_timeout = sum(1 for r in records
                        if r["failure"] is not None
                        and r["failure"]["kind"] == "timeout")
        result = JobResult(
            id=spec.id, results=tuple(records),
            n_ok=len(records) - n_failed, n_failed=n_failed,
            n_timeout=n_timeout,
            cache_hits=(after["hits"] - before["hits"]) if before else 0,
            cache_misses=(after["misses"] - before["misses"]) if before else 0,
            elapsed_s=elapsed)
        return result, resolved
