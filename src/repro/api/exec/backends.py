"""Execution backends: *where* a request runs, behind one interface.

A backend is a tiny executor: :meth:`~ExecutionBackend.open` with a
worker count, :meth:`~ExecutionBackend.submit` one
:class:`~repro.api.envelopes.ScheduleRequest` at a time, get a
:class:`Submission` handle back, :meth:`~ExecutionBackend.close` when the
batch is drained. Ordering, bounded-window streaming, cache consultation
and progress hooks all stay in the batch façade
(:func:`repro.api.batch.iter_solve_batch`) — a backend only decides how
the ``solve`` call executes.

A fixed table names the three backends (canonical names resolved like
algorithm names: case and ``-``/``_``/spaces ignored); two are the
in-process engines defined here:

``serial``   in-process, synchronous — ``submit`` returns a completed
             handle, so the façade's streaming is bit-for-bit the classic
             serial loop (one request pulled, one result yielded);
``process``  a ``multiprocessing`` pool (fork where available), the
             engine CPU-bound sweeps want — absorbed from the old
             hard-coded ``iter_solve_batch`` pool logic.

The third, ``queue``, lives in :mod:`repro.api.exec.queue`.
:func:`create_backend` is looked up on this module at call time, so
tests can substitute it.

Every backend enforces the request's
:class:`~repro.api.exec.policy.ExecutionPolicy` through the shared
:func:`solve_with_policy`, so timeouts and retries behave identically
everywhere. Timeouts are implemented with a watchdog: the attempt runs in
a daemon thread that is abandoned when the budget expires, and the
request completes with a structured ``FailureInfo(kind="timeout")`` —
the batch keeps streaming instead of hanging. (The abandoned attempt may
keep burning one CPU until it finishes; a timed-out *process* worker is
likewise left to its pool slot. Pick ``timeout_s`` as a guard rail, not
as a throttle.)
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional, Protocol, Tuple, runtime_checkable

from repro.api.batch import _effective_cluster
from repro.api.envelopes import FailureInfo, ScheduleRequest, ScheduleResult
from repro.api.exec.queue import QueueBackend
from repro.api.registry import get_algorithm
from repro.utils.registry import lookup


# ----------------------------------------------------------------------
# Policy enforcement (shared by every backend)
# ----------------------------------------------------------------------
def failure_result(request: ScheduleRequest, kind: str, message: str,
                   elapsed: float = 0.0) -> ScheduleResult:
    """A structured failure envelope for an execution-layer outcome.

    The cluster is resolved by the same helper ``solve`` uses (memory
    scaling applied), so the record aligns with every other outcome of
    the same request — ``scenario diff`` matches them by cluster name.
    ``makespan=inf`` like any other failure; identical on every backend
    by construction. Used for timeouts and for the queue backend's
    poison-request tombstones.
    """
    info = get_algorithm(request.algorithm)
    cluster = _effective_cluster(request)
    return ScheduleResult(
        algorithm=info.display_name,
        workflow=request.workflow.name,
        n_tasks=request.workflow.n_tasks,
        cluster=cluster.name,
        bandwidth=cluster.bandwidth,
        makespan=float("inf"),
        runtime=elapsed,
        n_blocks=0,
        failure=FailureInfo(kind=kind, message=message),
        tags=dict(request.tags),
    )


def _timeout_result(request: ScheduleRequest, timeout_s: float,
                    elapsed: float) -> ScheduleResult:
    """The structured envelope of a timed-out attempt."""
    return failure_result(request, "timeout",
                          f"scheduling exceeded timeout_s={timeout_s:g}",
                          elapsed)


def _attempt(request: ScheduleRequest,
             timeout_s: Optional[float]) -> ScheduleResult:
    """One attempt, watchdogged when a timeout budget is set."""
    from repro.api.batch import solve  # façade module; imported lazily

    if timeout_s is None:
        return solve(request)
    box: Dict[str, Any] = {}

    def target() -> None:
        try:
            box["result"] = solve(request)
        except BaseException as exc:  # re-raised in the caller below
            box["error"] = exc

    start = time.perf_counter()
    watchdog = threading.Thread(target=target, daemon=True,
                                name="repro-exec-attempt")
    watchdog.start()
    watchdog.join(timeout_s)
    if watchdog.is_alive():
        return _timeout_result(request, timeout_s,
                               time.perf_counter() - start)
    if "error" in box:
        raise box["error"]
    return box["result"]


def solve_with_policy(request: ScheduleRequest) -> ScheduleResult:
    """``solve`` under the request's :class:`ExecutionPolicy`.

    Requests without a policy take the plain ``solve`` path (zero
    overhead — no watchdog thread, no attempt loop). See
    :mod:`repro.api.exec.policy` for the retry/timeout semantics.
    """
    policy = request.policy
    if policy is None:
        from repro.api.batch import solve
        return solve(request)
    result = None
    for attempt in range(policy.attempts):
        if attempt:
            backoff = policy.backoff_s(attempt)
            if backoff > 0:
                time.sleep(backoff)
        result = _attempt(request, policy.timeout_s)
        if result.failure is None:
            return result
        if result.failure.kind == "timeout" and policy.on_timeout == "fail":
            return result
    return result


# ----------------------------------------------------------------------
# The backend interface
# ----------------------------------------------------------------------
class Submission(Protocol):
    """Handle for one submitted request."""

    def done(self) -> bool:
        """Non-blocking: has the result landed?"""
        ...

    def result(self) -> ScheduleResult:
        """Block until the result is available and return it."""
        ...


@runtime_checkable
class ExecutionBackend(Protocol):
    """What an execution engine must implement.

    ``open(workers)`` acquires resources (pools); ``submit`` hands over
    one request and returns a :class:`Submission`; ``close`` releases
    everything. Submissions must complete in bounded time once submitted
    (the façade only ever blocks on the oldest one).
    """

    name: str

    def open(self, workers: int) -> None: ...

    def submit(self, request: ScheduleRequest) -> Submission: ...

    def close(self) -> None: ...


# ----------------------------------------------------------------------
# The in-process backends
# ----------------------------------------------------------------------
class _Completed:
    """A submission that finished at submit time (serial backend)."""

    __slots__ = ("_result",)

    def __init__(self, result: ScheduleResult):
        self._result = result

    def done(self) -> bool:
        return True

    def result(self) -> ScheduleResult:
        return self._result


class SerialBackend:
    """In-process, one request at a time (the reference semantics);
    ``submit`` returns a completed handle."""

    name = "serial"

    def open(self, workers: int) -> None:  # workers ignored by design
        pass

    def submit(self, request: ScheduleRequest) -> Submission:
        return _Completed(solve_with_policy(request))

    def close(self) -> None:
        pass


class _AsyncResultSubmission:
    """Adapter: ``multiprocessing`` ``AsyncResult`` → :class:`Submission`."""

    __slots__ = ("_async",)

    def __init__(self, async_result):
        self._async = async_result

    def done(self) -> bool:
        return self._async.ready()

    def result(self) -> ScheduleResult:
        return self._async.get()


class ProcessBackend:
    """Worker-process execution; absorbs the classic pool logic.

    The fork start method shares already-built requests — and any custom
    algorithms registered before the batch — with the workers; where fork
    is unavailable the default start method is used, which requires
    registrations to happen at import time.
    """

    name = "process"

    def __init__(self):
        self._pool = None

    def open(self, workers: int) -> None:
        import multiprocessing
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = multiprocessing.get_context()
        self._pool = ctx.Pool(processes=max(1, workers))

    def submit(self, request: ScheduleRequest) -> Submission:
        return _AsyncResultSubmission(
            self._pool.apply_async(solve_with_policy, (request,)))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None


# ----------------------------------------------------------------------
# The backend table
# ----------------------------------------------------------------------
#: canonical name -> backend class; the class's ``name`` is its key
_BACKENDS: Dict[str, type] = {
    "process": ProcessBackend,
    "queue": QueueBackend,
    "serial": SerialBackend,
}


def available_backends() -> Tuple[str, ...]:
    """Sorted canonical names of the execution backends."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> type:
    """The backend class ``name`` canonicalizes to (its ``name`` is the
    canonical key); unknown names list the valid ones."""
    return lookup("execution backend", _BACKENDS, name)


def create_backend(name: str) -> ExecutionBackend:
    """A fresh backend instance for one batch."""
    return get_backend(name)()
