"""repro — reproduction of "Mapping Large Memory-constrained Workflows onto
Heterogeneous Platforms" (Kulagina, Meyerhenke, Benoit; ICPP 2024).

Quickstart
----------
Every algorithm runs through one entry point, :func:`repro.api.solve`.
``scale_memory=True`` applies the paper's rule (Section 5.1.2): memories
grow until the largest task has a processor it fits on.

>>> from repro import ScheduleRequest, default_cluster, generate_workflow, solve
>>> wf = generate_workflow("blast", n_tasks=200, seed=1)
>>> request = ScheduleRequest(workflow=wf, cluster=default_cluster(),
...                           algorithm="daghetpart", scale_memory=True)
>>> result = solve(request)
>>> result.success, result.failure
(True, None)
>>> result.mapping.validate()
>>> result.makespan, result.k_prime  # doctest: +SKIP

Package layout
--------------
``repro.workflow``   task-graph model;
``repro.platform``   heterogeneous clusters (Tables 2-3);
``repro.memdag``     peak-memory traversal engine (memDag role);
``repro.partition``  multilevel acyclic DAG partitioner (dagP role);
``repro.core``       DagHetMem baseline + DagHetPart heuristic;
``repro.api``        the public scheduling surface: algorithm registry,
                     request/result envelopes, ``solve``/``solve_batch``;
``repro.generators`` workflow families and weight models (Section 5.1.1);
``repro.experiments`` harness regenerating every table and figure.
"""

from repro.workflow import Workflow
from repro.platform import (
    Cluster,
    Processor,
    cluster_by_name,
    default_cluster,
    large_cluster,
    lesshet_cluster,
    morehet_cluster,
    nohet_cluster,
    small_cluster,
)
from repro.core import (
    DagHetPartConfig,
    Mapping,
    dag_het_mem,
)
from repro.api import (
    FailureInfo,
    ScenarioSpec,
    ScheduleRequest,
    ScheduleResult,
    available_algorithms,
    load_scenario,
    register_algorithm,
    run_scenario,
    solve,
    solve_batch,
)
from repro.generators import generate_workflow, WORKFLOW_FAMILIES
from repro.utils.errors import (
    CyclicWorkflowError,
    InvalidPartitionError,
    NoFeasibleMappingError,
    ReproError,
)

__version__ = "1.0.0"

__all__ = [
    "Workflow",
    "Cluster",
    "Processor",
    "cluster_by_name",
    "default_cluster",
    "small_cluster",
    "large_cluster",
    "morehet_cluster",
    "lesshet_cluster",
    "nohet_cluster",
    "DagHetPartConfig",
    "Mapping",
    "dag_het_mem",
    "FailureInfo",
    "ScenarioSpec",
    "ScheduleRequest",
    "ScheduleResult",
    "available_algorithms",
    "load_scenario",
    "register_algorithm",
    "run_scenario",
    "solve",
    "solve_batch",
    "generate_workflow",
    "WORKFLOW_FAMILIES",
    "ReproError",
    "CyclicWorkflowError",
    "InvalidPartitionError",
    "NoFeasibleMappingError",
    "__version__",
]
