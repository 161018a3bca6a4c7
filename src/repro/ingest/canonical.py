"""Importer for the library's own canonical workflow JSON.

Listing the native format in the format table makes ``repro ingest``
(and the scenario file sources behind it) completely uniform: every
on-disk workflow — whatever its origin — flows through the same detect →
import → normalize pipeline. The heavy lifting lives in
:func:`repro.workflow.io.workflow_from_dict`, which itself routes through
the shared :class:`~repro.ingest.normalize.WorkflowAssembler`, so
duplicate ids and unknown edge endpoints fail loudly here too.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from repro.utils.errors import IngestError
from repro.workflow.graph import Workflow


def sniff(text: str) -> bool:
    stripped = text.lstrip()
    if not stripped.startswith("{"):
        return False
    payload = json.loads(text)
    return (isinstance(payload, dict) and "workflow" not in payload
            and isinstance(payload.get("tasks"), list))


def import_canonical(text: str, *, name: Optional[str] = None,
                     path: Optional[str] = None,
                     data: Any = None) -> Workflow:
    from repro.workflow.io import workflow_from_dict

    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IngestError(f"invalid JSON: {exc.msg}", path=path,
                          line=exc.lineno) from None
    if not isinstance(payload, dict) or not isinstance(payload.get("tasks"),
                                                       list):
        raise IngestError(
            "canonical workflow JSON needs a top-level object with a "
            "'tasks' list", path=path)
    wf = workflow_from_dict(payload, path=path)
    if name:
        wf.name = name
    return wf
