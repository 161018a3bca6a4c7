"""Algorithm registry — the single dispatch point for scheduler names.

Every algorithm the library can run is registered exactly once with
:func:`register_algorithm`; the CLI, :func:`repro.api.solve` and the
scenario runner all resolve names through :func:`get_algorithm` instead
of carrying their own ``if algorithm ==`` chains. Registering a new
heuristic therefore makes it available to every entry point at once:

>>> @register_algorithm("greedy-cp", summary="critical-path greedy")
... class GreedyCP:
...     def run(self, workflow, cluster, config=None):
...         return SchedulerOutput(mapping=...)

Names are canonicalized (case, ``-``/``_``/spaces ignored), so
``"DagHetPart"``, ``"dag-het-part"`` and ``"daghetpart"`` resolve to the
same entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.api.envelopes import SchedulerOutput
from repro.core.mapping import Mapping
from repro.platform.cluster import Cluster
from repro.utils.registry import canonical_name, lookup
from repro.workflow.graph import Workflow


@runtime_checkable
class Scheduler(Protocol):
    """The one method an algorithm must implement.

    ``run`` maps the workflow onto the cluster and returns a
    :class:`SchedulerOutput`; infeasibility is reported by raising
    :class:`~repro.utils.errors.NoFeasibleMappingError` (the façade turns
    it into a structured :class:`~repro.api.envelopes.FailureInfo`).
    """

    def run(self, workflow: Workflow, cluster: Cluster,
            config: Optional[Any] = None) -> SchedulerOutput:
        ...


@dataclass(frozen=True)
class AlgorithmInfo:
    """One registry entry: the scheduler plus its self-description."""

    name: str  # canonical key, e.g. "daghetpart"
    display_name: str  # e.g. "DagHetPart" (used in records/reports)
    scheduler: Scheduler
    config_cls: Optional[type] = None  # the algorithm's config dataclass
    capabilities: FrozenSet[str] = frozenset()
    summary: str = ""


_ALGORITHMS: Dict[str, AlgorithmInfo] = {}


class _FunctionScheduler:
    """Adapter so plain ``f(workflow, cluster, config)`` callables register."""

    def __init__(self, fn: Callable[..., Any]):
        self._fn = fn

    def run(self, workflow: Workflow, cluster: Cluster,
            config: Optional[Any] = None) -> SchedulerOutput:
        out = self._fn(workflow, cluster, config)
        if isinstance(out, SchedulerOutput):
            return out
        if isinstance(out, Mapping):
            return SchedulerOutput(mapping=out)
        raise TypeError(
            f"registered function {self._fn!r} must return a SchedulerOutput "
            f"or Mapping, got {type(out).__name__}")


def register_algorithm(name: str, *, display_name: Optional[str] = None,
                       config_cls: Optional[type] = None,
                       capabilities: Iterable[str] = (),
                       summary: str = ""):
    """Class/function decorator adding an algorithm to the registry.

    Accepts a :class:`Scheduler` class (instantiated once), an object with
    a ``run`` method, or a plain callable ``f(workflow, cluster, config)``
    returning a :class:`SchedulerOutput` or bare ``Mapping``. Duplicate
    names (after canonicalization) are rejected.
    """
    key = canonical_name(name)
    if not key:
        raise ValueError(
            f"algorithm name {name!r} is empty after canonicalization")

    def decorator(obj):
        if key in _ALGORITHMS:
            raise ValueError(
                f"algorithm {key!r} already registered; unregister it "
                f"first to replace it")
        scheduler: Any = obj() if isinstance(obj, type) else obj
        if not callable(getattr(scheduler, "run", None)):
            scheduler = _FunctionScheduler(scheduler)
        _ALGORITHMS[key] = AlgorithmInfo(
            name=key,
            display_name=display_name or name,
            scheduler=scheduler,
            config_cls=config_cls,
            capabilities=frozenset(capabilities),
            summary=summary,
        )
        return obj

    return decorator


def unregister_algorithm(name: str) -> None:
    """Drop an algorithm (plugin teardown, tests); unknown names are a no-op."""
    _ALGORITHMS.pop(canonical_name(name), None)


def available_algorithms() -> Tuple[str, ...]:
    """Sorted canonical names of every registered algorithm."""
    return tuple(sorted(_ALGORITHMS))


def get_algorithm(name: str) -> AlgorithmInfo:
    """Resolve a (canonicalized) name; unknown names list the valid ones."""
    return lookup("algorithm", _ALGORITHMS, name)
