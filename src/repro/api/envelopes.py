"""Frozen request/result envelopes of the public scheduling API.

A :class:`ScheduleRequest` says *what* to solve (workflow, cluster,
algorithm name, config, scaling/validation knobs); a
:class:`ScheduleResult` says *what happened* — the mapping, makespan,
wall-clock runtime, the winning ``k'`` with its per-``k'`` sweep trace,
and a structured :class:`FailureInfo` instead of a swallowed exception.

Results are JSON round-trippable (:meth:`ScheduleResult.to_json` /
:meth:`ScheduleResult.from_json`) so batch runs can be persisted and
re-aggregated without re-scheduling. The live :class:`Mapping` object is
the one field that does not survive serialization (it holds the full
workflow and cluster); everything the experiment metrics need does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Mapping as TMapping, Optional, Tuple

from repro.core.heuristic import SweepPoint
from repro.core.mapping import Mapping
from repro.platform.cluster import Cluster
from repro.utils import errors as _errors
from repro.utils.records import Record, tupled
from repro.workflow.graph import Workflow

#: exception classes a FailureInfo can be rehydrated into
_FAILURE_KINDS = {
    cls.__name__: cls
    for cls in (
        _errors.ReproError,
        _errors.CyclicWorkflowError,
        _errors.ExecutionTimeoutError,
        _errors.InvalidPartitionError,
        _errors.NoFeasibleMappingError,
        _errors.PartitionSplitError,
    )
}
#: the execution-layer failure kind (not an exception class name): a
#: request exceeded its ExecutionPolicy.timeout_s on some backend
_FAILURE_KINDS["timeout"] = _errors.ExecutionTimeoutError


@dataclass(frozen=True)
class FailureInfo(Record):
    """Why a run failed: exception kind, message, and unplaced work."""

    kind: str  # exception class name, e.g. "NoFeasibleMappingError"
    message: str
    unplaced_tasks: int = 0

    @classmethod
    def from_exception(cls, exc: BaseException) -> "FailureInfo":
        return cls(kind=type(exc).__name__, message=str(exc),
                   unplaced_tasks=int(getattr(exc, "unplaced_tasks", 0)))

    def to_exception(self) -> _errors.ReproError:
        """Rehydrate the recorded failure as a raisable exception."""
        if self.kind == "NoFeasibleMappingError":
            return _errors.NoFeasibleMappingError(
                self.message, unplaced_tasks=self.unplaced_tasks)
        if self.kind == "CyclicWorkflowError":
            return _errors.CyclicWorkflowError(message=self.message)
        return _FAILURE_KINDS.get(self.kind, _errors.ReproError)(self.message)

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass(frozen=True)
class ScheduleRequest:
    """One scheduling problem for :func:`repro.api.solve`.

    ``config`` is the algorithm's own config object (``DagHetPartConfig``
    for the built-in heuristic; algorithms that take no config ignore it).
    ``scale_memory`` applies the paper's proportional memory scaling so
    the largest task fits somewhere (the synthetic-corpus rule; off by
    default for direct API calls). ``want_mapping=False`` drops the live
    :class:`Mapping` from the result — batch runs over large corpora use
    this to keep worker→parent transfers small. ``tags`` travel to the
    result untouched (instance/family metadata, user correlation ids).
    ``policy`` is an optional
    :class:`~repro.api.exec.policy.ExecutionPolicy` (per-request timeout,
    retries, backoff) enforced by every execution backend; like ``tags``
    it is an execution knob, excluded from the result-cache fingerprint.
    ``dynamics`` is an optional :class:`~repro.sim.events.DynamicsSpec`
    (or a plain dict of it): set, :func:`~repro.api.solve` replays the
    solved plan under it and reports the realized makespan. Unlike
    ``policy`` it changes the outcome, so it is part of the fingerprint.
    """

    workflow: Workflow
    cluster: Cluster
    algorithm: str = "daghetpart"
    config: Optional[Any] = None
    scale_memory: bool = False
    validate: bool = False
    want_mapping: bool = True
    tags: TMapping[str, Any] = field(default_factory=dict)
    policy: Optional[Any] = None
    dynamics: Optional[Any] = None

    def __post_init__(self):
        if self.dynamics is not None:
            from repro.sim.events import DynamicsSpec
            if not isinstance(self.dynamics, DynamicsSpec):
                object.__setattr__(self, "dynamics",
                                   DynamicsSpec.from_dict(self.dynamics))
        if self.policy is None:
            return
        # accept a plain policy dict (the spec-file idiom) but normalize
        # at construction — a bad policy must fail here, not as an opaque
        # AttributeError inside a backend worker
        from repro.api.exec.policy import ExecutionPolicy
        if isinstance(self.policy, ExecutionPolicy):
            return
        if isinstance(self.policy, TMapping):
            object.__setattr__(self, "policy",
                               ExecutionPolicy.from_dict(self.policy))
            return
        raise TypeError(
            f"policy must be an ExecutionPolicy, a mapping of its fields, "
            f"or None; got {type(self.policy).__name__}")

    # ------------------------------------------------------------------
    # JSON round trip (requests are fully serializable: workflow weights,
    # cluster + interconnect, config fields — so a request grid can be
    # shipped to another process or archived next to its results)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dict of the complete request.

        ``config`` must be ``None`` or a dataclass instance (every
        registered ``config_cls`` is one); anything else raises
        ``TypeError`` — explicit rejection instead of a lossy repr.
        """
        import dataclasses

        from repro.workflow.io import workflow_to_dict

        if self.config is None:
            config = None
        elif dataclasses.is_dataclass(self.config) \
                and not isinstance(self.config, type):
            config = {"type": type(self.config).__name__,
                      "fields": dataclasses.asdict(self.config)}
        else:
            raise TypeError(
                f"cannot serialize config of type "
                f"{type(self.config).__name__}; expected None or a dataclass")
        data = {
            "workflow": workflow_to_dict(self.workflow),
            "cluster": self.cluster.to_dict(),
            "algorithm": self.algorithm,
            "config": config,
            "scale_memory": self.scale_memory,
            "validate": self.validate,
            "want_mapping": self.want_mapping,
            "tags": dict(self.tags),
            "policy": None if self.policy is None else self.policy.to_dict(),
        }
        if self.dynamics is not None:
            # only when set: a static request's wire form stays unchanged
            data["dynamics"] = self.dynamics.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: TMapping[str, Any]) -> "ScheduleRequest":
        """Inverse of :meth:`to_dict`; config rebuilt via the registry."""
        from repro.api.registry import get_algorithm
        from repro.workflow.io import workflow_from_dict

        algorithm = data.get("algorithm", "daghetpart")
        # resolved even without a config, so an unknown name is refused
        # here rather than by the job that runs it
        config_cls = get_algorithm(algorithm).config_cls
        config = None
        stored = data.get("config")
        if stored is not None:
            if config_cls is None or config_cls.__name__ != stored["type"]:
                expected = "no config" if config_cls is None \
                    else config_cls.__name__
                raise ValueError(
                    f"algorithm {algorithm!r} takes {expected}, but the "
                    f"stored request carries a {stored['type']!r}")
            config = config_cls(**{k: tupled(v)
                                   for k, v in stored["fields"].items()})
        return cls(
            workflow=workflow_from_dict(data["workflow"]),
            cluster=Cluster.from_dict(data["cluster"]),
            algorithm=algorithm,
            config=config,
            scale_memory=bool(data.get("scale_memory", False)),
            validate=bool(data.get("validate", False)),
            want_mapping=bool(data.get("want_mapping", True)),
            tags=dict(data.get("tags", {})),
            policy=data.get("policy"),  # a dict; __post_init__ decodes it
            dynamics=data.get("dynamics"),  # likewise
        )

    def to_json(self) -> str:
        """Deterministic strict JSON; non-finite floats are rejected."""
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleRequest":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class SchedulerOutput:
    """What a registered :class:`~repro.api.registry.Scheduler` returns.

    Algorithms without a ``k'`` sweep leave ``k_prime``/``sweep`` at their
    defaults; the façade fills in timing, failure capture, and envelope
    metadata around this. ``extra`` carries algorithm-specific outcome
    metadata (the annealer's seed makespan, the exact solver's counters); the
    façade surfaces it as ``ScheduleResult.extra``, so it survives JSON
    round-trips and cache hits without mixing into the caller's ``tags``.
    Values must be JSON-serializable and finite.
    """

    mapping: Mapping
    k_prime: Optional[int] = None
    sweep: Tuple[SweepPoint, ...] = ()
    extra: TMapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of one solve: envelope around a mapping or a failure."""

    algorithm: str  # display name, e.g. "DagHetPart"
    workflow: str  # workflow name
    n_tasks: int
    cluster: str  # cluster name actually used (after memory scaling)
    bandwidth: float
    makespan: float  # inf when the run failed
    runtime: float  # wall-clock seconds of the scheduling algorithm
    n_blocks: int  # 0 when the run failed
    k_prime: Optional[int] = None  # winning k' (sweep algorithms only)
    sweep: Tuple[SweepPoint, ...] = ()
    failure: Optional[FailureInfo] = None
    tags: TMapping[str, Any] = field(default_factory=dict)
    #: algorithm-reported outcome metadata (``SchedulerOutput.extra``):
    #: the annealer's seed makespan, the exact solver's counters. Determined
    #: by the computation — unlike ``tags``, which belong to the caller —
    #: so cache hits keep the stored ``extra`` while retagging.
    extra: TMapping[str, Any] = field(default_factory=dict)
    #: the live mapping; never serialized, None after from_json or when
    #: the request asked for want_mapping=False
    mapping: Optional[Mapping] = field(default=None, compare=False, repr=False)

    @property
    def success(self) -> bool:
        return self.failure is None

    def raise_if_failed(self) -> "ScheduleResult":
        """Raise the recorded failure (back-compat with raising APIs)."""
        if self.failure is not None:
            raise self.failure.to_exception()
        return self

    def without_mapping(self) -> "ScheduleResult":
        """A copy with the live mapping dropped (cheap to pickle/store)."""
        return replace(self, mapping=None)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dict of everything except the live mapping.

        The ``+inf`` makespan of a failed run becomes ``null`` so the
        output is strict RFC 8259 JSON (no ``Infinity`` literal, which
        jq/JavaScript parsers reject); :meth:`from_dict` restores it.
        ``nan``/``-inf`` makespans have no failed-run meaning to restore,
        so they are rejected with ``ValueError`` rather than silently
        rehydrated as ``+inf`` (any other non-finite float in the
        envelope is likewise rejected, by ``allow_nan=False`` at dump
        time).
        """
        if not math.isfinite(self.makespan) and self.makespan != math.inf:
            raise ValueError(
                f"cannot serialize makespan {self.makespan!r}: only finite "
                f"values or +inf (failed run) are representable")
        return {
            "algorithm": self.algorithm,
            "workflow": self.workflow,
            "n_tasks": self.n_tasks,
            "cluster": self.cluster,
            "bandwidth": self.bandwidth,
            "makespan": self.makespan if math.isfinite(self.makespan) else None,
            "runtime": self.runtime,
            "n_blocks": self.n_blocks,
            "k_prime": self.k_prime,
            "sweep": [{"k_prime": p.k_prime, "makespan": p.makespan,
                       "status": p.status} for p in self.sweep],
            "failure": None if self.failure is None else
            self.failure.to_dict(),
            "tags": dict(self.tags),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: TMapping[str, Any]) -> "ScheduleResult":
        failure = data.get("failure")
        makespan = data["makespan"]
        return cls(
            algorithm=data["algorithm"],
            workflow=data["workflow"],
            n_tasks=int(data["n_tasks"]),
            cluster=data["cluster"],
            bandwidth=float(data["bandwidth"]),
            makespan=float("inf") if makespan is None else float(makespan),
            runtime=float(data["runtime"]),
            n_blocks=int(data["n_blocks"]),
            k_prime=data.get("k_prime"),
            sweep=tuple(SweepPoint(p["k_prime"], p["makespan"], p["status"])
                        for p in data.get("sweep", ())),
            failure=None if failure is None else
            FailureInfo.from_dict(failure),
            tags=dict(data.get("tags", {})),
            extra=dict(data.get("extra", {})),
        )

    def to_json(self) -> str:
        """Deterministic strict JSON (sorted keys); inverse of :meth:`from_json`."""
        return json.dumps(self.to_dict(), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "ScheduleResult":
        return cls.from_dict(json.loads(text))
