"""Scenario results → flat records for the metrics layer.

One :class:`RunRecord` per (instance, algorithm). Failures to schedule are
legitimate outcomes (Section 5.2.2 counts them), so they are recorded —
with a ``failure_reason`` — not raised.

All execution (timing, failure capture, backends, caching, deterministic
merge) lives in :mod:`repro.api`; this module only flattens each
:class:`ScheduleResult` (its scalars plus the instance tags the scenario
expansion attached) into the record the metrics layer aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.api import ScenarioSpec, ScheduleResult, run_scenario

#: the paper's pairing, in evaluation order (canonical registry aliases)
ALGORITHMS = ("DagHetMem", "DagHetPart")

__all__ = [
    "ALGORITHMS",
    "RunRecord",
    "record_from_result",
    "scenario_records",
]


@dataclass(frozen=True)
class RunRecord:
    """Result of one algorithm on one instance (flat, aggregation-ready)."""

    instance: str
    family: str
    category: str
    n_tasks: int
    algorithm: str
    cluster: str
    bandwidth: float
    success: bool
    makespan: float  # inf when unsuccessful
    runtime: float  # wall-clock seconds of the scheduling algorithm
    n_blocks: int
    failure_reason: str = ""  # "" on success, else "Kind: message"
    k_prime: Optional[int] = None  # winning k' (sweep algorithms only)


def record_from_result(result: ScheduleResult) -> RunRecord:
    """Flatten one API result (tags + scalars) into a RunRecord."""
    tags = result.tags
    return RunRecord(
        instance=str(tags.get("instance", result.workflow)),
        family=str(tags.get("family", result.workflow)),
        category=str(tags.get("category", "")),
        n_tasks=int(tags.get("n_tasks", result.n_tasks)),
        algorithm=result.algorithm,
        cluster=result.cluster,
        bandwidth=result.bandwidth,
        success=result.success,
        makespan=result.makespan,
        runtime=result.runtime,
        n_blocks=result.n_blocks,
        failure_reason="" if result.failure is None else str(result.failure),
        k_prime=result.k_prime,
    )


def scenario_records(spec: ScenarioSpec,
                     parallel: Optional[int] = None,
                     progress: Optional[Callable[[str], None]] = None,
                     cache=None) -> List[RunRecord]:
    """Run a declarative scenario and flatten its results into records.

    Results stream through :func:`repro.api.run_scenario` (so ``cache``
    — a cache URI or an open :class:`repro.api.CacheBackend` — turns
    re-runs into disk reads) and are flattened as they arrive. ``progress``
    receives one message per completed request.
    """
    hook = None
    if progress is not None:
        total = spec.size()

        def hook(index, request, result):
            progress(f"finished {result.workflow} / {result.algorithm} on "
                     f"{result.cluster} ({index + 1}/{total})")

    return [record_from_result(r)
            for r in run_scenario(spec, parallel=parallel, cache=cache,
                                  progress=hook)]
