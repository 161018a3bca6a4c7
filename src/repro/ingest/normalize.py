"""The shared normalization/validation gate every importer feeds through.

Two layers:

* :class:`WorkflowAssembler` — the *construction-time* checks a built
  :class:`~repro.workflow.graph.Workflow` can no longer perform
  (``add_task`` silently overwrites, ``add_edge`` silently creates missing
  endpoints): duplicate task ids, edges referencing unknown tasks, and
  self-loops all raise :class:`~repro.utils.errors.IngestError` carrying
  the file and line they came from.
* :func:`normalize_workflow` — the *post-construction* pass run once per
  ingest, whatever the format: unit scaling (``work_scale`` /
  ``cost_scale`` / ``memory_scale``), deterministic task-id interning
  (every id becomes its ``str`` form, collisions rejected), weight sanity
  (finite, non-negative), and the cycle check — again with file context.
  With default options the pass is idempotent:
  ``normalize(normalize(wf)) == normalize(wf)``.

Alongside the gate live the corpus-curation helpers:
:func:`workflow_stats` (depth, fan-in/out, work/memory distributions) and
:func:`workflow_fingerprint` (an order-insensitive sha256 over the
canonical serialized form — the content hash scenario sources pin with
their ``checksum`` field so a silently edited trace can't poison a cached
sweep).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.utils.errors import IngestError
from repro.workflow.graph import Workflow


class WorkflowAssembler:
    """Incremental workflow builder with loud, located error reporting.

    ``allow_implicit_tasks`` lets edge-first formats (DOT, edge lists)
    create endpoints on the fly with default weights; strict formats
    (canonical JSON, WfCommons, DAX, templates) leave it off so an edge
    naming an undeclared task fails with the offending edge spelled out.
    """

    def __init__(self, name: str = "workflow", *, path: Optional[str] = None,
                 allow_implicit_tasks: bool = False):
        self.workflow = Workflow(name)
        self.path = path
        self.allow_implicit_tasks = allow_implicit_tasks
        self._declared = set()

    def error(self, message: str, *, line: Optional[int] = None) -> "IngestError":
        raise IngestError(message, path=self.path, line=line)

    def add_task(self, task_id: Any, work: float = 1.0, memory: float = 0.0,
                 *, line: Optional[int] = None) -> None:
        if task_id in self._declared:
            self.error(f"duplicate task id {task_id!r}", line=line)
        self._declared.add(task_id)
        self.workflow.add_task(task_id, work, memory)

    def add_edge(self, u: Any, v: Any, cost: float = 0.0,
                 *, line: Optional[int] = None) -> None:
        if u == v:
            self.error(f"self-loop on task {u!r}", line=line)
        for endpoint in (u, v):
            if endpoint not in self.workflow:
                if not self.allow_implicit_tasks:
                    self.error(
                        f"edge ({u!r} -> {v!r}) references unknown task "
                        f"{endpoint!r}", line=line)
                self._declared.add(endpoint)
                self.workflow.add_task(endpoint)
        self.workflow.add_edge(u, v, cost)

    def finish(self) -> Workflow:
        """The raw workflow (cycle/weight checks happen in normalize)."""
        return self.workflow


@dataclass(frozen=True)
class NormalizeOptions:
    """Unit-scaling knobs applied by :func:`normalize_workflow`.

    Traces record work/cost/memory in whatever unit the exporting system
    used (seconds, bytes, MB); the scales convert them into the model's
    abstract units in one deterministic place instead of per-importer
    ad-hockery. ``1.0`` everywhere (the default) is the identity — and
    the only configuration under which normalization is idempotent.
    """

    work_scale: float = 1.0
    cost_scale: float = 1.0
    memory_scale: float = 1.0

    def __post_init__(self):
        for field_name in ("work_scale", "cost_scale", "memory_scale"):
            value = getattr(self, field_name)
            if not (isinstance(value, (int, float)) and value > 0
                    and math.isfinite(value)):
                raise ValueError(
                    f"{field_name} must be a positive finite number, "
                    f"got {value!r}")
            object.__setattr__(self, field_name, float(value))


DEFAULT_OPTIONS = NormalizeOptions()


def normalize_workflow(wf: Workflow,
                       options: Optional[NormalizeOptions] = None,
                       *, path: Optional[str] = None) -> Workflow:
    """Validate and canonicalize an imported workflow.

    Returns a *new* workflow whose task ids are interned strings (in the
    original insertion order, so repeated ingests are bit-identical),
    whose weights are scaled by ``options``, and which is guaranteed
    acyclic with finite non-negative weights. Violations raise
    :class:`~repro.utils.errors.IngestError` naming the offender and the
    source file.
    """
    options = options or DEFAULT_OPTIONS
    if wf.n_tasks == 0:
        raise IngestError("workflow has no tasks", path=path)

    interned: Dict[Any, str] = {}
    seen: Dict[str, Any] = {}
    for u in wf.tasks():
        key = u if isinstance(u, str) else str(u)
        if key in seen:
            raise IngestError(
                f"task ids {seen[key]!r} and {u!r} collide after interning "
                f"to {key!r}", path=path)
        seen[key] = u
        interned[u] = key

    out = Workflow(wf.name)
    for u in wf.tasks():
        work = wf.work(u) * options.work_scale
        memory = wf.memory(u) * options.memory_scale
        if not _finite_nonneg(work):
            raise IngestError(
                f"task {u!r} has invalid work {wf.work(u)!r}", path=path)
        if not _finite_nonneg(memory):
            raise IngestError(
                f"task {u!r} has invalid memory {wf.memory(u)!r}", path=path)
        out.add_task(interned[u], work, memory)
    for u, v, c in wf.edges():
        cost = c * options.cost_scale
        if not _finite_nonneg(cost):
            raise IngestError(
                f"edge ({u!r} -> {v!r}) has invalid cost {c!r}", path=path)
        out.add_edge(interned[u], interned[v], cost)

    cycle = out.find_cycle()
    if cycle is not None:
        shown = " -> ".join(repr(x) for x in cycle[:6])
        raise IngestError(
            f"workflow contains a cycle through {shown}"
            + ("..." if len(cycle) > 6 else ""), path=path)
    return out


def _finite_nonneg(value: float) -> bool:
    return isinstance(value, float) and math.isfinite(value) and value >= 0.0


# ----------------------------------------------------------------------
# corpus curation: structural stats + content hash
# ----------------------------------------------------------------------
def workflow_stats(wf: Workflow) -> Dict[str, Any]:
    """Structural statistics of a workflow (deterministic, JSON-ready).

    ``depth`` counts *tasks* on the longest path (a single task has depth
    1); distributions report min/mean/max so a corpus table stays one row
    per workflow.
    """
    works = [wf.work(u) for u in wf.tasks()]
    memories = [wf.memory(u) for u in wf.tasks()]
    costs = [c for _, _, c in wf.edges()]

    depth = 0
    longest: Dict[Any, int] = {}
    for u in wf.topological_order():
        best = 0
        for p in wf.parents(u):
            best = max(best, longest[p])
        longest[u] = best + 1
        depth = max(depth, best + 1)

    fan_out = [wf.out_degree(u) for u in wf.tasks()]
    fan_in = [wf.in_degree(u) for u in wf.tasks()]
    return {
        "name": wf.name,
        "n_tasks": wf.n_tasks,
        "n_edges": wf.n_edges,
        "n_sources": len(wf.sources()),
        "n_targets": len(wf.targets()),
        "depth": depth,
        "max_fan_out": max(fan_out, default=0),
        "max_fan_in": max(fan_in, default=0),
        "total_work": sum(works),
        "work_min": min(works, default=0.0),
        "work_mean": (sum(works) / len(works)) if works else 0.0,
        "work_max": max(works, default=0.0),
        "memory_min": min(memories, default=0.0),
        "memory_mean": (sum(memories) / len(memories)) if memories else 0.0,
        "memory_max": max(memories, default=0.0),
        "total_edge_cost": sum(costs),
        "edge_cost_max": max(costs, default=0.0),
        "max_requirement": wf.max_task_requirement(),
    }


def workflow_fingerprint(wf: Workflow) -> str:
    """Content hash of a workflow: sha256 over the canonical sorted form.

    Task and edge rows are sorted, so the hash depends only on the
    *content* (name, tasks, weights, edges) — not on insertion order —
    and two ingests of equivalent descriptions agree. This is the value
    scenario sources pin via ``checksum`` and ``repro ingest`` prints.
    """
    from repro.workflow.io import workflow_to_dict

    data = workflow_to_dict(wf)
    canonical = {
        "name": data["name"],
        "tasks": sorted((str(t["id"]), float(t["work"]), float(t["memory"]))
                        for t in data["tasks"]),
        "edges": sorted((str(e["source"]), str(e["target"]), float(e["cost"]))
                        for e in data["edges"]),
    }
    payload = json.dumps(canonical, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
