"""Workflow serialization: JSON (canonical) and GraphViz DOT (interop).

The paper converts nextflow pipelines to ``.dot`` via ``-with-dag``; the
DOT reader is :func:`repro.ingest.dot.import_dot` (quoted identifiers,
comments, loud errors). Deserialization routes
through the shared :class:`~repro.ingest.normalize.WorkflowAssembler`,
so duplicate task ids and edges referencing unknown tasks fail with the
offender named instead of being silently absorbed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.utils.errors import IngestError
from repro.workflow.graph import Workflow

PathLike = Union[str, Path]


def workflow_to_dict(wf: Workflow) -> Dict[str, Any]:
    """Serialize to a JSON-compatible dict (tasks, weights, edges)."""
    return {
        "name": wf.name,
        "tasks": [
            {"id": _key(u), "work": wf.work(u), "memory": wf.memory(u)}
            for u in wf.tasks()
        ],
        "edges": [
            {"source": _key(u), "target": _key(v), "cost": c}
            for u, v, c in wf.edges()
        ],
    }


def workflow_from_dict(data: Dict[str, Any],
                       *, path: Optional[str] = None) -> Workflow:
    """Inverse of :func:`workflow_to_dict`.

    Validates while building: a duplicate task id or an edge referencing
    an undeclared task raises :class:`~repro.utils.errors.IngestError`
    naming the offender (and ``path``, when given) instead of silently
    overwriting or conjuring the missing endpoint. Task ids are kept
    as-is (no interning) so round-trips preserve scalar ids; the full
    normalization gate is the ingest pipeline's job.
    """
    from repro.ingest.normalize import WorkflowAssembler

    if not isinstance(data, dict) or "tasks" not in data:
        raise IngestError("workflow dict needs a 'tasks' list", path=path)
    asm = WorkflowAssembler(data.get("name", "workflow"), path=path)
    for t in data["tasks"]:
        if not isinstance(t, dict) or "id" not in t:
            raise IngestError(
                f"every task needs an 'id' field, got {t!r}", path=path)
        asm.add_task(t["id"], t.get("work", 1.0), t.get("memory", 0.0))
    for e in data.get("edges") or []:
        if not isinstance(e, dict) or "source" not in e or "target" not in e:
            raise IngestError(
                f"every edge needs 'source' and 'target' fields, got {e!r}",
                path=path)
        asm.add_edge(e["source"], e["target"], e.get("cost", 0.0))
    return asm.finish()


def save_workflow_json(wf: Workflow, path: PathLike) -> None:
    """Write the workflow to ``path`` as indented JSON."""
    Path(path).write_text(json.dumps(workflow_to_dict(wf), indent=1))


def workflow_to_dot(wf: Workflow) -> str:
    """Render as GraphViz DOT with weights in attribute lists."""
    lines = [f'digraph "{wf.name}" {{']
    for u in wf.tasks():
        lines.append(f'  "{_key(u)}" [work={wf.work(u)}, memory={wf.memory(u)}];')
    for u, v, c in wf.edges():
        lines.append(f'  "{_key(u)}" -> "{_key(v)}" [cost={c}];')
    lines.append("}")
    return "\n".join(lines)


def _key(u: Any) -> Any:
    """JSON keys must be scalars; tuples and other hashables become strings."""
    return u if isinstance(u, (str, int, float, bool)) else str(u)
