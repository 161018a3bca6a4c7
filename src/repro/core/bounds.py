"""Makespan lower bounds and optimality-gap reporting.

The DAGP-PM problem is NP-complete, so neither heuristic comes with a
guarantee; these bounds put every measured makespan in context. All three
are valid for *any* mapping that satisfies the model of Section 3:

* **work bound** — the total work divided by the sum of the ``k`` fastest
  processor speeds: even a perfectly balanced, communication-free
  schedule cannot beat it;
* **critical-path bound** — the workflow's work-only critical path run
  entirely on the fastest processor (communication is free only if the
  whole path shares one processor, so edge costs are excluded);
* **bottleneck-task bound** — the heaviest single task on the fastest
  processor that can *hold* it (memory constraints can forbid the fastest
  machines).

``makespan_lower_bound`` is their maximum; ``optimality_gap`` divides a
mapping's makespan by it. :func:`oversized_tasks` is the matching
infeasibility certificate: one task that fits no processor rules out
every memory-respecting mapping.
"""

from __future__ import annotations

from typing import Hashable, List

from repro.core.mapping import Mapping
from repro.platform.cluster import Cluster
from repro.workflow.analysis import critical_path
from repro.workflow.graph import Workflow


def work_bound(wf: Workflow, cluster: Cluster) -> float:
    """Total work over the aggregate speed of all processors."""
    total_speed = sum(p.speed for p in cluster)
    if total_speed <= 0:
        return float("inf")
    return wf.total_work() / total_speed


def critical_path_bound(wf: Workflow, cluster: Cluster) -> float:
    """Work along the longest work-only path, at the maximum speed.

    Edge costs are deliberately excluded: a mapping placing the whole path
    on one processor pays no communication, so including them would make
    the bound invalid.
    """
    path, _ = critical_path(wf, beta=float("inf"))
    if not path:
        return 0.0
    path_work = sum(wf.work(u) for u in path)
    max_speed = max(p.speed for p in cluster)
    return path_work / max_speed


def bottleneck_task_bound(wf: Workflow, cluster: Cluster) -> float:
    """The heaviest task on the fastest processor whose memory can hold it.

    A task ``u`` can only run on processors with ``M_j >= r_u``; on
    memory-stratified clusters this excludes the fast small-memory nodes
    and sharpens the bound considerably.
    """
    bound = 0.0
    speeds_by_memory = sorted(((p.memory, p.speed) for p in cluster))
    for u in wf.tasks():
        r = wf.task_requirement(u)
        best_speed = 0.0
        for memory, speed in speeds_by_memory:
            if memory + 1e-9 >= r:
                best_speed = max(best_speed, speed)
        if best_speed == 0.0:
            return float("inf")  # task fits nowhere: every makespan is inf
        bound = max(bound, wf.work(u) / best_speed)
    return bound


#: slack of :func:`oversized_tasks`, relative and absolute: a block peak is
#: a float sum that may round a few ulps below a member task's requirement,
#: and the mappers accept peaks up to 1e-9 above a processor's memory
_FIT_SLACK = 1e-6


def oversized_tasks(wf: Workflow, cluster: Cluster) -> List[Hashable]:
    """Tasks whose requirement ``r_u`` exceeds every processor's memory.

    While a task runs, its block holds the task's inputs, memory and
    outputs, so every block's peak is at least ``r_u`` for each of its
    tasks, whatever the traversal. One such task therefore rules out
    every memory-respecting mapping. O(n); requirements within the
    rounding slack of the largest memory do not count.
    """
    limit = cluster.max_memory()
    bound = limit + _FIT_SLACK * max(1.0, abs(limit))
    if not wf.max_task_requirement() > bound:
        return []
    return [u for u in wf.tasks() if wf.task_requirement(u) > bound]


def makespan_lower_bound(wf: Workflow, cluster: Cluster) -> float:
    """Best (largest) of the three lower bounds."""
    return max(work_bound(wf, cluster),
               critical_path_bound(wf, cluster),
               bottleneck_task_bound(wf, cluster))


def optimality_gap(mapping: Mapping) -> float:
    """``mapping.makespan() / lower_bound`` — 1.0 would be provably optimal."""
    lb = makespan_lower_bound(mapping.workflow, mapping.cluster)
    if lb <= 0:
        return 1.0
    return mapping.makespan() / lb
