"""Frozen job envelopes of the scheduling service.

A :class:`JobSpec` says *what* a client submitted — one
:class:`~repro.api.envelopes.ScheduleRequest` (kind ``"schedule"``) or a
whole :class:`~repro.api.scenario.ScenarioSpec` (kind ``"scenario"``),
carried as the envelope's own ``to_dict`` payload, so a job record is
exactly the offline wire format plus a job id. A :class:`JobStatus` says
*where the job is* in its lifecycle; a :class:`JobResult` says *what came
out* — the per-request :class:`~repro.api.envelopes.ScheduleResult`
dicts (bit-identical to an offline ``scenario run`` of the same spec,
modulo measured runtimes) plus the job-level tallies the stats surface
reports.

All three are :class:`~repro.utils.records.Record` classes
(``to_json``/``from_json``, strict RFC 8259, sorted keys), so the job
store keeps each one as its JSON text and a restarted server
rehydrates every record without bespoke parsing.

Lifecycle::

    queued -> running -> done | failed
                  \\-> crashed           (server died mid-run; recorded
                                          by the *next* server on restart)

``failed`` means the job ran to completion but an internal error kept it
from producing results (e.g. an unregisterable algorithm name that
slipped past submission validation); per-request scheduling failures are
*not* job failures — they come back as structured ``FailureInfo`` on the
individual results, exactly as offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping as TMapping, Optional, Tuple

from repro.utils.records import Record

#: the two payload kinds a job can carry
JOB_KINDS = ("schedule", "scenario")

#: every state a job can be in (see the module docstring for the graph)
JOB_STATES = ("queued", "running", "done", "failed", "crashed")

#: states from which a job will never move again
TERMINAL_STATES = ("done", "failed", "crashed")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


@dataclass(frozen=True)
class JobSpec(Record):
    """One submitted job: an id, a payload kind, and the payload itself.

    ``payload`` is the submitted envelope's ``to_dict`` form —
    ``ScheduleRequest.to_dict()`` for ``kind="schedule"``,
    ``ScenarioSpec.to_dict()`` for ``kind="scenario"`` — validated by the
    submission endpoint (it rebuilds the envelope before accepting the
    job, so a stored spec always rehydrates). ``tags`` are client
    correlation metadata, travelling on the job like request tags travel
    on results; ``submitted_at`` is a unix timestamp.
    """

    id: str
    kind: str
    payload: TMapping[str, Any]
    submitted_at: float = 0.0
    tags: TMapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        _require(bool(self.id), "a job needs a non-empty id")
        _require(self.kind in JOB_KINDS,
                 f"unknown job kind {self.kind!r}; valid: {', '.join(JOB_KINDS)}")
        _require(isinstance(self.payload, TMapping),
                 f"payload must be a mapping, got {type(self.payload).__name__}")
        object.__setattr__(self, "payload", dict(self.payload))
        object.__setattr__(self, "tags", dict(self.tags))

    # ------------------------------------------------------------------
    def build_requests(self):
        """Rehydrate the payload into a list of ``ScheduleRequest``.

        Single-schedule payloads always come back with
        ``want_mapping=False``: the live mapping neither serializes into
        the job store nor survives the HTTP boundary, so the service
        variant of a request is the cacheable one.
        """
        from repro.api.envelopes import ScheduleRequest
        from repro.api.scenario import ScenarioSpec, expand

        if self.kind == "schedule":
            request = ScheduleRequest.from_dict(self.payload)
            if request.want_mapping:
                request = replace(request, want_mapping=False)
            return [request]
        return list(expand(ScenarioSpec.from_dict(self.payload)))

    def total_requests(self) -> int:
        """How many requests the payload expands to (cheap; no workflows)."""
        from repro.api.scenario import ScenarioSpec

        if self.kind == "schedule":
            return 1
        return ScenarioSpec.from_dict(self.payload).size()


@dataclass(frozen=True)
class JobStatus(Record):
    """Where one job is in its lifecycle, plus live progress counters.

    ``total`` is the request count the payload expands to; ``completed``
    / ``ok`` / ``failed`` / ``timeouts`` tick per finished request while
    the job runs (``failed`` counts infeasible requests, ``timeouts``
    policy timeouts — both are *request* outcomes, not job outcomes).
    ``error`` is set only on ``failed``/``crashed`` jobs.
    """

    id: str
    state: str = "queued"
    total: int = 0
    completed: int = 0
    ok: int = 0
    failed: int = 0
    timeouts: int = 0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None

    def __post_init__(self):
        _require(bool(self.id), "a job status needs a non-empty id")
        _require(self.state in JOB_STATES,
                 f"unknown job state {self.state!r}; "
                 f"valid: {', '.join(JOB_STATES)}")
        for name in ("total", "completed", "ok", "failed", "timeouts"):
            _require(getattr(self, name) >= 0, f"{name} must be >= 0")

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


@dataclass(frozen=True)
class JobResult(Record):
    """What a finished job produced.

    ``results`` holds one ``ScheduleResult.to_dict()`` per request, in
    expansion order — the same records an offline ``scenario run --json``
    writes, so ``repro scenario diff`` aligns a job dump against an
    offline dump directly. ``cache_hits``/``cache_misses`` are the
    job's *delta* on the shared result cache (exact when jobs run one at
    a time, approximate under concurrent jobs sharing one cache);
    ``elapsed_s`` is the job's wall-clock from start to finish.
    """

    id: str
    results: Tuple[TMapping[str, Any], ...] = ()
    n_ok: int = 0
    n_failed: int = 0
    n_timeout: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_s: float = 0.0

    def __post_init__(self):
        _require(bool(self.id), "a job result needs a non-empty id")
        object.__setattr__(self, "results",
                           tuple(dict(r) for r in self.results))
        for name in ("n_ok", "n_failed", "n_timeout",
                     "cache_hits", "cache_misses"):
            _require(getattr(self, name) >= 0, f"{name} must be >= 0")
