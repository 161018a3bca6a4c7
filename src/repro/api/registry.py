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
    FrozenSet,
    Iterable,
    Optional,
    Protocol,
    runtime_checkable,
)

from repro.api.envelopes import SchedulerOutput
from repro.core.mapping import Mapping
from repro.platform.cluster import Cluster
from repro.utils.registry import Registry, canonical_name  # noqa: F401
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


_REGISTRY: Registry[AlgorithmInfo] = Registry("algorithm")


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
    key = _REGISTRY.key(name)

    def decorator(obj):
        scheduler: Any = obj() if isinstance(obj, type) else obj
        if not callable(getattr(scheduler, "run", None)):
            scheduler = _FunctionScheduler(scheduler)
        _REGISTRY.add(AlgorithmInfo(
            name=key,
            display_name=display_name or name,
            scheduler=scheduler,
            config_cls=config_cls,
            capabilities=frozenset(capabilities),
            summary=summary,
        ))
        return obj

    return decorator


unregister_algorithm = _REGISTRY.remove
available_algorithms = _REGISTRY.names
algorithm_infos = _REGISTRY.infos
get_algorithm = _REGISTRY.get
