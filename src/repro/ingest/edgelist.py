"""Importer for plain edge-list / CSV workflow descriptions.

The lowest common denominator: many graph tools (and quick shell
pipelines) emit dependencies as one ``parent,child[,cost]`` row per
line. This importer accepts that, plus an optional node section so
weights can ride along without a second file:

* ``task <id> [work] [memory]`` — declare a task with weights;
* ``<parent> <child> [cost]``  — an edge (endpoints are created
  implicitly with default weights when not declared).

Columns split on commas, semicolons, or whitespace — whichever the line
uses. Lines starting with ``#`` or ``//`` are comments; a header row of
the common ``source,target[,cost]``/``parent,child`` spelling is
skipped. Non-numeric weight columns raise
:class:`~repro.utils.errors.IngestError` with the offending line.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional

from repro.ingest.normalize import WorkflowAssembler
from repro.utils.errors import IngestError
from repro.workflow.graph import Workflow

_SPLIT_RE = re.compile(r"[,;]|\s+")

_HEADER_FIRST = {"source", "parent", "from", "u", "src", "task_from"}


def sniff(text: str) -> bool:
    """A few data lines of 2-4 short columns and no structural syntax."""
    head = text[:4096]
    if any(marker in head for marker in ("{", "<", "->")):
        return False
    rows = 0
    for line in head.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("//"):
            continue
        columns = [c for c in _SPLIT_RE.split(line) if c]
        if not 2 <= len(columns) <= 4:
            return False
        rows += 1
    return rows > 0


def _number(raw: str, what: str, *, path: Optional[str],
            line: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise IngestError(f"{what}: non-numeric value {raw!r}",
                          path=path, line=line) from None


def import_edgelist(text: str, *, name: Optional[str] = None,
                    path: Optional[str] = None, data: Any = None) -> Workflow:
    asm = WorkflowAssembler(str(name or "workflow"), path=path,
                            allow_implicit_tasks=True)
    saw_row = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("//"):
            continue
        columns: List[str] = [c for c in _SPLIT_RE.split(line) if c]
        if not saw_row and columns and columns[0].lower() in _HEADER_FIRST:
            continue  # header row
        if columns and columns[0].lower() == "task":
            if len(columns) < 2 or len(columns) > 4:
                raise IngestError(
                    "task line needs 'task <id> [work] [memory]'",
                    path=path, line=lineno)
            work = _number(columns[2], f"task {columns[1]!r} work",
                           path=path, line=lineno) if len(columns) > 2 else 1.0
            memory = _number(columns[3], f"task {columns[1]!r} memory",
                             path=path, line=lineno) if len(columns) > 3 \
                else 0.0
            asm.add_task(columns[1], work, memory, line=lineno)
            saw_row = True
            continue
        if len(columns) == 2:
            u, v = columns
            cost = 0.0
        elif len(columns) == 3:
            u, v = columns[0], columns[1]
            cost = _number(columns[2], f"edge ({u!r} -> {v!r}) cost",
                           path=path, line=lineno)
        else:
            raise IngestError(
                f"expected 'parent child [cost]' or 'task id [work] "
                f"[memory]', got {len(columns)} columns", path=path,
                line=lineno)
        asm.add_edge(u, v, cost, line=lineno)
        saw_row = True
    if not saw_row:
        raise IngestError("no rows found (empty edge list)", path=path)
    return asm.finish()
