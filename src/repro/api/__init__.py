"""repro.api — the public scheduling surface.

One stable entry point for every consumer (CLI, experiment harness,
examples, future serving layers):

>>> from repro.api import ScheduleRequest, solve
>>> result = solve(ScheduleRequest(workflow=wf, cluster=cluster,
...                                algorithm="daghetpart"))
>>> result.makespan, result.k_prime, result.failure

* :mod:`repro.api.registry` — ``@register_algorithm`` plus name
  resolution; algorithms declare their name, config dataclass, and
  capabilities, and every entry point dispatches through it;
* :mod:`repro.api.envelopes` — frozen ``ScheduleRequest`` /
  ``ScheduleResult`` envelopes with structured ``FailureInfo`` and JSON
  round-tripping;
* :mod:`repro.api.batch` — ``solve(request)``,
  ``solve_batch(requests, parallel=N)`` (deterministic parallel merge)
  and the streaming ``iter_solve_batch`` it is built on;
* :mod:`repro.api.scenario` — declarative ``ScenarioSpec`` (JSON-round-
  trippable experiment grids) with ``expand``/``run_scenario``;
* :mod:`repro.api.cache` — fingerprint-keyed on-disk result cache,
  ``open_cache(URI)`` (resume instead of recompute);
* :mod:`repro.api.schedulers` — the built-in algorithms: the paper's two
  plus the memory-oblivious HEFT-style list scheduler (``heftlist``),
  the critical-path packer (``cpack``), the simulated-annealing refiner
  (``anneal``) and the tiny-instance reference solver (``exact``).
"""

from repro.api.envelopes import (
    FailureInfo,
    ScheduleRequest,
    ScheduleResult,
    SchedulerOutput,
)
from repro.api.registry import (
    AlgorithmInfo,
    Scheduler,
    available_algorithms,
    canonical_name,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.api import schedulers  # noqa: F401  (registers the built-in algorithms)
from repro.api.batch import (
    PARALLEL_ENV,
    iter_solve_batch,
    resolve_parallel,
    solve,
    solve_batch,
)
from repro.api.cache import (
    CacheBackend,
    describe_cache,
    open_cache,
    request_fingerprint,
)
from repro.api.diff import diff_results, format_diff, load_result_lines
from repro.api.exec import (
    BACKEND_ENV,
    ExecutionBackend,
    ExecutionPolicy,
    QueueBackend,
    available_backends,
    create_backend,
    get_backend,
    route,
    run_worker,
    solve_with_policy,
)
from repro.api.scenario import (
    AlgorithmSpec,
    ExecutionSpec,
    FamilyGridSource,
    FileWorkflowSource,
    PlatformAxis,
    RealWorkflowSource,
    ScenarioSpec,
    TemplateWorkflowSource,
    expand,
    load_scenario,
    run_scenario,
)
from repro.core.anneal import AnnealConfig
from repro.core.exact import ExactConfig
from repro.core.heuristic import SweepPoint

__all__ = [
    "AlgorithmInfo",
    "AlgorithmSpec",
    "AnnealConfig",
    "BACKEND_ENV",
    "CacheBackend",
    "ExactConfig",
    "ExecutionBackend",
    "ExecutionPolicy",
    "ExecutionSpec",
    "FailureInfo",
    "FamilyGridSource",
    "FileWorkflowSource",
    "PARALLEL_ENV",
    "PlatformAxis",
    "QueueBackend",
    "RealWorkflowSource",
    "ScenarioSpec",
    "Scheduler",
    "SchedulerOutput",
    "ScheduleRequest",
    "ScheduleResult",
    "SweepPoint",
    "TemplateWorkflowSource",
    "available_algorithms",
    "available_backends",
    "canonical_name",
    "create_backend",
    "describe_cache",
    "diff_results",
    "expand",
    "format_diff",
    "get_algorithm",
    "get_backend",
    "iter_solve_batch",
    "load_result_lines",
    "load_scenario",
    "open_cache",
    "register_algorithm",
    "request_fingerprint",
    "resolve_parallel",
    "route",
    "run_scenario",
    "run_worker",
    "solve",
    "solve_batch",
    "solve_with_policy",
    "unregister_algorithm",
]
