"""``solve`` / ``solve_batch`` — thin façades over the execution backends.

:func:`solve` executes one :class:`ScheduleRequest` end to end: registry
lookup, optional memory scaling, an O(n) check for tasks that fit no
processor, timed algorithm run, failure capture into a
:class:`FailureInfo`, optional validation, the replay under the
request's ``dynamics`` block when it has one, envelope assembly.

:func:`iter_solve_batch` streams results back in request order while
keeping only a bounded window of requests in flight, so arbitrarily large
sweeps (scenario cross-products, million-request corpora) never
materialise all requests or results at once. *Where* the requests run is
delegated to an :class:`~repro.api.exec.backends.ExecutionBackend`
(``serial``, ``process`` or ``queue``), chosen per batch by
:func:`~repro.api.exec.routing.route` — explicit ``backend=`` override,
then ``REPRO_BACKEND``, then the worker count.
Per-request :class:`~repro.api.exec.policy.ExecutionPolicy` (timeout,
retries) is enforced by the backend, so a timed-out request yields a
structured ``FailureInfo(kind="timeout")`` instead of hanging the sweep.

The façade optionally consults a :class:`~repro.api.cache.CacheBackend`
so repeated sweeps are served from disk instead of recomputed. It is the
only code that reads or writes the cache — for static solves and
dynamic replays alike, since a replay is just a request with a
``dynamics`` block: backends, the ``queue`` engine's worker processes
included, only ever see cache misses. When no
cache is attached, no fingerprint is ever computed (fingerprinting hashes
the whole workflow — pure overhead on cache-less runs; see
``benchmarks/test_batch_overhead.py`` for the guard).

:func:`solve_batch` is the list-returning façade over the same iterator;
results come back merged deterministically into the input order, so apart
from the measured ``runtime`` fields a parallel batch is identical to a
serial one — and identical *across backends*.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from itertools import chain
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.api.envelopes import FailureInfo, ScheduleRequest, ScheduleResult
from repro.api.registry import get_algorithm
from repro.core.bounds import oversized_tasks
from repro.utils.errors import NoFeasibleMappingError, ReproError

#: environment default for ``solve_batch(parallel=None)``; 0 = serial
PARALLEL_ENV = "REPRO_PARALLEL"

#: called after each request completes: (index, request, result)
ProgressHook = Callable[[int, ScheduleRequest, ScheduleResult], None]


def solve(request: ScheduleRequest) -> ScheduleResult:
    """Run one request; failures come back structured, never raised.

    Only algorithm failures (:class:`ReproError` subclasses — the paper's
    "platform too small" outcomes) are captured into
    ``ScheduleResult.failure``; programming errors (unknown algorithm
    name, wrong config type) raise immediately. The request's
    ``ExecutionPolicy`` is *not* enforced here — that is the backend's
    job (:func:`repro.api.exec.backends.solve_with_policy`).
    """
    info = get_algorithm(request.algorithm)  # raises on unknown names
    cluster = _effective_cluster(request)

    failure: Optional[FailureInfo] = None
    output = None
    sweep: Tuple = ()
    start = time.perf_counter()
    try:
        if "memory-packing" in info.capabilities:
            _check_tasks_fit(request.workflow, cluster, info.display_name)
        output = info.scheduler.run(request.workflow, cluster, request.config)
    except ReproError as exc:
        failure = FailureInfo.from_exception(exc)
        sweep = tuple(getattr(exc, "sweep", ()))
        if (isinstance(exc, NoFeasibleMappingError) and not request.scale_memory
                and oversized_tasks(request.workflow, cluster)):
            failure = dataclasses.replace(failure, message=(
                f"{failure.message}; scale_memory=True scales processor "
                f"memories until the largest task fits (the paper's rule "
                f"for synthetic workflows)"))
    runtime = time.perf_counter() - start

    mapping = output.mapping if output is not None else None
    makespan = float("inf")
    extra = dict(output.extra) if output is not None else {}
    if mapping is not None:
        if request.validate:
            mapping.validate()
        makespan = mapping.makespan()
        if request.dynamics is not None:
            makespan, failure = _replay(request, mapping, makespan, extra)

    return ScheduleResult(
        algorithm=info.display_name,
        workflow=request.workflow.name,
        n_tasks=request.workflow.n_tasks,
        cluster=cluster.name,
        bandwidth=cluster.bandwidth,
        makespan=makespan,
        runtime=runtime,
        n_blocks=mapping.n_blocks if mapping is not None else 0,
        k_prime=output.k_prime if output is not None else None,
        sweep=tuple(output.sweep) if output is not None else sweep,
        failure=failure,
        tags=dict(request.tags),
        extra=extra,
        mapping=mapping if request.want_mapping else None,
    )


def _replay(request: ScheduleRequest, mapping, makespan: float,
            extra: dict) -> Tuple[float, Optional[FailureInfo]]:
    """Replay the plan under ``request.dynamics``: (makespan, failure).

    On success the makespan is the *realized* one, and ``extra`` gains
    the flat ``sim_*`` robustness metrics and the resolved event log
    (``sim_event_log``). A replay that strands a block (no live
    processor fits it) keeps the plan's makespan and reports the
    failure. ``runtime`` stays the solver's: the replay is not timed.
    """
    from repro.sim.engine import SimEngine  # lazy: static solves skip it
    try:
        report = SimEngine(mapping, request.dynamics,
                           algorithm=request.algorithm).run()
    except ReproError as exc:
        return makespan, FailureInfo.from_exception(exc)
    extra.update(report.metrics)
    extra["sim_event_log"] = report.events
    return report.realized, None


def _effective_cluster(request: ScheduleRequest):
    """The cluster a request runs on: memory-scaled when it asks for it."""
    if not request.scale_memory:
        return request.cluster
    # lazy: repro.experiments imports repro.api at package load
    from repro.experiments.instances import scaled_cluster_for
    return scaled_cluster_for(request.workflow, request.cluster)


def _check_tasks_fit(workflow, cluster, algorithm: str) -> None:
    """Fail in O(n) when some task fits no processor, before any search.

    :func:`solve` runs this for algorithms declaring ``memory-packing``
    (every block they emit fits its processor). DagHetPart, and anneal,
    which starts from it, run the same check inside their ``k'`` sweep,
    so the failure still lists every ``k'``. Other algorithms, plugins
    included, are not checked: they may map such tasks anyway.
    """
    oversized = oversized_tasks(workflow, cluster)
    if oversized:
        raise NoFeasibleMappingError(
            f"{algorithm}: {len(oversized)} task(s) of {workflow.name!r} "
            f"need more memory than any processor of {cluster.name!r} has "
            f"({cluster.max_memory():g})",
            unplaced_tasks=len(oversized))


def resolve_parallel(parallel: Optional[int]) -> int:
    """Normalize the ``parallel`` knob to a worker count (0/1 = serial).

    ``None`` reads :data:`PARALLEL_ENV` (blank means serial; anything
    but an integer is a ``ValueError``); negative values mean "all
    available CPUs".
    """
    if parallel is None:
        raw = os.environ.get(PARALLEL_ENV, "").strip() or "0"
        try:
            parallel = int(raw)
        except ValueError:
            raise ValueError(
                f"{PARALLEL_ENV}={raw!r} is not an integer worker "
                f"count") from None
    if parallel < 0:
        parallel = os.cpu_count() or 1
    return parallel


def _fingerprint(cache, request: ScheduleRequest) -> Optional[str]:
    """The request's cache fingerprint, or ``None`` when not cacheable.

    The ``cache is None`` fast path must stay first: fingerprinting hashes
    the entire workflow and cluster, and a cache-less run must never pay
    for it. Requests that want the live mapping back are never served from
    cache either — the mapping does not survive serialization, so a hit
    would silently downgrade the result.
    """
    if cache is None or request.want_mapping:
        return None
    return cache.fingerprint(request)


def _cacheable(result: ScheduleResult) -> bool:
    """Timeouts are execution artifacts (machine/load-dependent), not
    outcomes of the computation — caching one would poison every later
    sweep with a failure that might not reproduce."""
    return result.failure is None or result.failure.kind != "timeout"


def iter_solve_batch(requests: Iterable[ScheduleRequest],
                     parallel: Optional[int] = None,
                     progress: Optional[ProgressHook] = None,
                     cache=None,
                     window: Optional[int] = None,
                     backend: Optional[str] = None) -> Iterator[ScheduleResult]:
    """Stream results back in request order, never holding the whole batch.

    ``requests`` may be any iterable — including a lazy generator over a
    scenario cross-product; it is consumed incrementally, with at most
    ``window`` requests (default ``4 x workers``) in flight at a time, so
    million-request sweeps stay at constant memory. ``parallel`` behaves
    as in :func:`solve_batch`. ``progress`` is called in the parent, in
    request order, as each result is yielded.

    ``backend`` overrides the execution backend (a registered name);
    by default :func:`~repro.api.exec.routing.route` picks one from
    ``REPRO_BACKEND`` and the worker count. The first request is pulled
    before routing only so that an empty stream never opens a backend.
    On the ``serial`` backend the semantics are bit-for-bit the classic
    loop: one request pulled, solved, cached, yielded at a time.

    ``cache`` is an optional :class:`repro.api.cache.CacheBackend`:
    requests whose fingerprint is already stored are served from disk
    without a ``solve`` call (their ``tags`` are taken from the incoming
    request, not the stored result), and every freshly computed result is
    stored in the cache before being yielded — a crashed sweep resumes
    where it stopped. Identical requests *within* a run dedupe on every
    backend: a request whose fingerprint is already in flight waits for
    the first submission's result instead of solving again (on serial the
    earlier result is already cached by the time the duplicate is
    submitted, so parallel backends now honour the same contract).
    Requests with ``want_mapping=True`` bypass the cache, because the
    live mapping cannot be rehydrated from disk; timed-out results are
    never cached.
    """
    from repro.api.exec.backends import create_backend, solve_with_policy
    from repro.api.exec.routing import route

    it = iter(requests)
    try:
        first = next(it)
    except StopIteration:
        return
    workers = resolve_parallel(parallel)
    engine = create_backend(route(backend=backend, workers=workers))
    if engine.name == "serial":
        window = 1
    else:
        workers = max(workers, 1)
        window = max(int(window or 4 * workers), workers)

    # entries are (index, request, fingerprint, ready result | None,
    # submission | None, deferred); cached hits carry a ready result,
    # submitted requests a backend handle, and a *deferred* entry is a
    # duplicate of an in-flight fingerprint — it waits for the earlier
    # identical submission instead of re-running the solve
    pending: deque = deque()
    inflight = 0
    #: fingerprints with a live submission (within-run dedupe on
    #: parallel backends: later identical requests defer to the first)
    inflight_fps: set = set()

    def drain_head() -> ScheduleResult:
        nonlocal inflight
        index, request, fingerprint, result, submission, deferred = \
            pending.popleft()
        if submission is not None:
            result = submission.result()
            inflight -= 1
            if fingerprint is not None:
                if _cacheable(result):
                    cache.put(fingerprint, result)
                inflight_fps.discard(fingerprint)
        elif deferred:
            # the primary sat ahead of this entry in the in-order queue,
            # so it has drained (and been cached) by now — this is the
            # same lookup-then-hit a serial run performs, counters and
            # retagging included
            result = cache.get(fingerprint, request)
            if result is None:
                # the primary's outcome was uncacheable (a timeout);
                # solve inline, exactly as a serial run would re-run it
                result = solve_with_policy(request)
        if progress is not None:
            progress(index, request, result)
        return result

    engine.open(max(workers, 1))
    try:
        for index, request in enumerate(chain((first,), it)):
            fingerprint = _fingerprint(cache, request)
            hit = None
            deferred = fingerprint is not None and fingerprint in inflight_fps
            if fingerprint is not None and not deferred:
                hit = cache.get(fingerprint, request)
            if hit is not None:
                pending.append((index, request, fingerprint, hit, None,
                                False))
            elif deferred:
                pending.append((index, request, fingerprint, None, None,
                                True))
            else:
                pending.append((index, request, fingerprint, None,
                                engine.submit(request), False))
                inflight += 1
                if fingerprint is not None:
                    inflight_fps.add(fingerprint)
            # drain: ready heads (cache hits, deferred duplicates,
            # completed submissions) stream immediately; an unfinished
            # head is only waited on once the in-flight window (or the
            # pending queue, when cache hits pile up behind a slow miss)
            # is full
            while pending and (pending[0][4] is None or pending[0][4].done()
                               or inflight >= window
                               or len(pending) >= 4 * window):
                yield drain_head()
        while pending:
            yield drain_head()
    finally:
        engine.close()


def solve_batch(requests: Iterable[ScheduleRequest],
                parallel: Optional[int] = None,
                progress: Optional[ProgressHook] = None,
                cache=None,
                backend: Optional[str] = None) -> List[ScheduleResult]:
    """Run every request; results are returned in the input order.

    ``parallel`` > 1 distributes requests over that many workers of the
    routed backend (``None`` consults the ``REPRO_PARALLEL`` environment
    variable, ``-1`` uses every CPU); ``backend`` forces a specific
    execution backend regardless of worker count. On the ``process``
    backend the fork start method shares the already-built requests — and
    any custom algorithms registered before the call — with the workers;
    where fork is unavailable the default start method is used, which
    requires registrations to happen at import time. ``progress`` is
    called in the parent, in request order, once per request. ``cache``
    is forwarded to :func:`iter_solve_batch`.
    """
    requests = list(requests)
    workers = min(resolve_parallel(parallel), len(requests))
    return list(iter_solve_batch(requests, parallel=workers,
                                 progress=progress, cache=cache,
                                 backend=backend))
