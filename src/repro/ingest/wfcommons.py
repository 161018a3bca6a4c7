"""Importer for WfCommons / wfformat JSON workflow traces.

The WfCommons project publishes execution traces of real scientific
workflows (Montage, Epigenomics, 1000Genome, ...) as JSON following the
*wfformat* schema: a top-level ``workflow`` object whose tasks carry
runtimes, memory figures, parent/child links, and per-file I/O records.
The mapping onto the paper's model:

* ``runtimeInSeconds`` / ``runtime`` → task **work** ``w_u``;
* ``memoryInBytes`` / ``memory``    → task **memory** ``m_u``;
* an edge ``(u, v)`` costs the **bytes transferred** between them — the
  sizes of the files ``u`` writes and ``v`` reads (matched by file name).

Both wfformat generations are understood: the flat layout
(``workflow.tasks`` / ``workflow.jobs`` with inline ``files`` entries)
and the split 1.5 layout (``workflow.specification.tasks`` naming
``inputFiles``/``outputFiles`` resolved against
``workflow.specification.files``, with runtimes overlaid from
``workflow.execution.tasks``). Unit conversion (bytes → the model's
abstract cost unit) is the normalization pass's ``cost_scale`` knob, not
the importer's business.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Tuple

from repro.ingest.normalize import WorkflowAssembler
from repro.utils.errors import IngestError
from repro.workflow.graph import Workflow


def sniff(text: str) -> bool:
    stripped = text.lstrip()
    if not stripped.startswith("{"):
        return False
    payload = json.loads(text)
    if not isinstance(payload, dict):
        return False
    block = payload.get("workflow")
    return isinstance(block, dict) and any(
        key in block for key in ("tasks", "jobs", "specification"))


def _task_id(entry: Dict[str, Any], path: Optional[str]) -> str:
    tid = entry.get("id") or entry.get("name")
    if not tid:
        raise IngestError("task without an 'id' or 'name' field", path=path)
    return str(tid)


def _first_number(*candidates: Any) -> Optional[float]:
    for value in candidates:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return None


def _file_size(entry: Dict[str, Any]) -> float:
    return _first_number(entry.get("sizeInBytes"), entry.get("size")) or 0.0


def import_wfcommons(text: str, *, name: Optional[str] = None,
                     path: Optional[str] = None,
                     data: Any = None) -> Workflow:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid JSON: {exc.msg}", path=path,
                          line=exc.lineno) from None
    if not isinstance(payload, dict) or not isinstance(payload.get("workflow"),
                                                       dict):
        raise IngestError(
            "not a wfformat document (expected a top-level 'workflow' "
            "object)", path=path)
    block = payload["workflow"]

    # --- locate the task list and any split-out file catalog -----------
    tasks = block.get("tasks") or block.get("jobs")
    catalog: Dict[str, float] = {}
    specification = block.get("specification")
    if tasks is None and isinstance(specification, dict):
        tasks = specification.get("tasks")
        for entry in specification.get("files") or []:
            fid = entry.get("id") or entry.get("name")
            if fid:
                catalog[str(fid)] = _file_size(entry)
    if not isinstance(tasks, list) or not tasks:
        raise IngestError(
            "wfformat document has no tasks (looked in workflow.tasks, "
            "workflow.jobs, workflow.specification.tasks)", path=path)

    # --- optional execution overlay (runtimes/memory measured per run) -
    overlay: Dict[str, Dict[str, Any]] = {}
    execution = block.get("execution")
    if isinstance(execution, dict):
        for entry in execution.get("tasks") or []:
            if isinstance(entry, dict):
                tid = entry.get("id") or entry.get("name")
                if tid:
                    overlay[str(tid)] = entry

    wf_name = name or payload.get("name") or block.get("name") or "workflow"
    asm = WorkflowAssembler(str(wf_name), path=path)
    reads: Dict[str, Dict[str, float]] = {}
    writes: Dict[str, Dict[str, float]] = {}

    for entry in tasks:
        if not isinstance(entry, dict):
            raise IngestError(f"task entry is not an object: {entry!r}",
                              path=path)
        tid = _task_id(entry, path)
        extra = overlay.get(tid, {})
        work = _first_number(extra.get("runtimeInSeconds"),
                             extra.get("runtime"),
                             entry.get("runtimeInSeconds"),
                             entry.get("runtime"))
        memory = _first_number(extra.get("memoryInBytes"),
                               extra.get("memory"),
                               entry.get("memoryInBytes"),
                               entry.get("memory"))
        asm.add_task(tid, 1.0 if work is None else work, memory or 0.0)

        ins: Dict[str, float] = {}
        outs: Dict[str, float] = {}
        for record in entry.get("files") or []:
            fname = record.get("name") or record.get("id")
            if not fname:
                continue
            link = str(record.get("link", "")).lower()
            target = ins if link == "input" else outs if link == "output" \
                else None
            if target is not None:
                target[str(fname)] = _file_size(record)
        for fname in entry.get("inputFiles") or []:
            ins[str(fname)] = catalog.get(str(fname), 0.0)
        for fname in entry.get("outputFiles") or []:
            outs[str(fname)] = catalog.get(str(fname), 0.0)
        reads[tid] = ins
        writes[tid] = outs

    # --- edges: union of parents/children declarations, document order -
    pairs: List[Tuple[str, str]] = []
    seen = set()
    for entry in tasks:
        tid = _task_id(entry, path)
        for parent in entry.get("parents") or []:
            pair = (str(parent), tid)
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)
    for entry in tasks:
        tid = _task_id(entry, path)
        for child in entry.get("children") or []:
            pair = (tid, str(child))
            if pair not in seen:
                seen.add(pair)
                pairs.append(pair)

    for u, v in pairs:
        # bytes transferred: files u writes that v reads; the reader's
        # recorded size wins when both sides carry one
        cost = 0.0
        v_reads = reads.get(v, {})
        for fname, size in writes.get(u, {}).items():
            if fname in v_reads:
                cost += v_reads[fname] or size
        asm.add_edge(u, v, cost)
    return asm.finish()
