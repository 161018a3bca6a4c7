"""Structural analysis of workflows: critical paths, levels, fan-out.

The paper classifies workflow families as "fanned-out" (BWA, BLAST,
Seismology) vs "chain-like" (SoyKB, Epigenomics) and correlates this with
DagHetPart's improvement (Sections 5.2.5-5.2.6). The statistics here
measure those traits for one workflow; ``examples/quickstart.py`` prints
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from repro.workflow.graph import Workflow

Node = Hashable


def topological_levels(wf: Workflow) -> Dict[Node, int]:
    """Longest-path depth of each task from the sources (level of a source is 0)."""
    levels: Dict[Node, int] = {}
    for u in wf.topological_order():
        preds = list(wf.parents(u))
        levels[u] = 0 if not preds else 1 + max(levels[p] for p in preds)
    return levels


def critical_path(wf: Workflow, beta: float = 1.0) -> Tuple[List[Node], float]:
    """Return the work+communication critical path of the raw workflow.

    Path value of a task ``u`` is ``w_u + max over children (c_{u,v}/beta +
    value(v))`` — the speed-1 bottom weight of Section 3.3 applied to the
    unpartitioned graph. Returns the path (source to sink) and its length.
    """
    order = wf.topological_order()
    value: Dict[Node, float] = {}
    best_child: Dict[Node, Node] = {}
    for u in reversed(order):
        best = 0.0
        arg = None
        for v, c in wf.out_edges(u):
            cand = c / beta + value[v]
            if arg is None or cand > best:
                best, arg = cand, v
        value[u] = wf.work(u) + best
        if arg is not None:
            best_child[u] = arg
    if not order:
        return [], 0.0
    start = max(value, key=lambda u: value[u])
    path = [start]
    while path[-1] in best_child:
        path.append(best_child[path[-1]])
    return path, value[start]


def fanout_statistics(wf: Workflow) -> Dict[str, float]:
    """Degree-based fan-out metrics used to classify workflow families."""
    if wf.n_tasks == 0:
        return {"max_out_degree": 0.0, "mean_out_degree": 0.0, "width": 0.0}
    out_degrees = [wf.out_degree(u) for u in wf.tasks()]
    levels = topological_levels(wf)
    width_per_level: Dict[int, int] = {}
    for lvl in levels.values():
        width_per_level[lvl] = width_per_level.get(lvl, 0) + 1
    return {
        "max_out_degree": float(max(out_degrees)),
        "mean_out_degree": float(sum(out_degrees)) / len(out_degrees),
        "width": float(max(width_per_level.values())),
    }


@dataclass(frozen=True)
class WorkflowStats:
    """Summary record printed by the experiment reports."""

    name: str
    n_tasks: int
    n_edges: int
    n_sources: int
    n_targets: int
    total_work: float
    total_edge_cost: float
    max_task_requirement: float
    depth: int
    width: float
    mean_out_degree: float


def workflow_statistics(wf: Workflow) -> WorkflowStats:
    """Compute a :class:`WorkflowStats` summary for reporting."""
    fan = fanout_statistics(wf)
    levels = topological_levels(wf) if wf.n_tasks else {}
    return WorkflowStats(
        name=wf.name,
        n_tasks=wf.n_tasks,
        n_edges=wf.n_edges,
        n_sources=len(wf.sources()),
        n_targets=len(wf.targets()),
        total_work=wf.total_work(),
        total_edge_cost=wf.total_edge_cost(),
        max_task_requirement=wf.max_task_requirement(),
        depth=(max(levels.values()) + 1) if levels else 0,
        width=fan["width"],
        mean_out_degree=fan["mean_out_degree"],
    )
