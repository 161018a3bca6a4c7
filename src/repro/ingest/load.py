"""Front door of the ingestion subsystem: detect → import → normalize.

:func:`ingest_text` and :func:`ingest_path` are what everything else
calls — the CLI ``repro ingest`` verb, the scenario file/template
sources, and the examples. Every workflow that enters the system through
them has passed the same validation gate
(:func:`~repro.ingest.normalize.normalize_workflow`), whatever format it
arrived in.

Workflow *names* matter here: the request fingerprint the result cache
keys on includes the workflow name, so names must not depend on where
the file happened to sit. Precedence: an explicit ``name`` argument,
else the name recorded inside the document, else the file's base name
with the format's extension stripped — never the full path.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.ingest.normalize import (DEFAULT_OPTIONS, NormalizeOptions,
                                    normalize_workflow, workflow_fingerprint,
                                    workflow_stats)
from repro.ingest.registry import detect_format, get_format
from repro.utils.errors import IngestError
from repro.workflow.graph import Workflow

#: the assembler default importers fall back to when a document carries
#: no internal name — replaced by the filename stem when one is known
_DEFAULT_NAME = "workflow"


def _stem(path: str, extensions: tuple) -> str:
    base = os.path.basename(path)
    for ext in sorted(extensions, key=len, reverse=True):
        if base.lower().endswith(ext.lower()) and len(base) > len(ext):
            return base[:-len(ext)]
    return os.path.splitext(base)[0] or base


def ingest_text(text: str, *, fmt: Optional[str] = None,
                name: Optional[str] = None, path: Optional[str] = None,
                data: Optional[Dict[str, Any]] = None,
                options: Optional[NormalizeOptions] = None) -> Workflow:
    """Import workflow ``text`` and run it through the validation gate.

    ``fmt`` forces a format by name; otherwise :func:`detect_format`
    sniffs the content (and falls back to the extension of ``path``).
    ``data`` feeds template expansion and is rejected for formats that
    cannot use it.
    """
    info = get_format(fmt) if fmt else detect_format(text, path=path)
    if data is not None and info.name != "template":
        raise IngestError(
            f"--data only applies to templates, not {info.name!r}",
            path=path)
    wf = info.importer(text, name=name, path=path, data=data)
    if wf.name == _DEFAULT_NAME and name is None and path is not None:
        wf.name = _stem(path, info.extensions)
    return normalize_workflow(wf, options or DEFAULT_OPTIONS, path=path)


def ingest_path(path: str, *, fmt: Optional[str] = None,
                name: Optional[str] = None,
                data: Optional[Dict[str, Any]] = None,
                options: Optional[NormalizeOptions] = None) -> Workflow:
    """Read and ingest the workflow description at ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IngestError(f"cannot read file: {exc.strerror or exc}",
                          path=str(path)) from None
    return ingest_text(text, fmt=fmt, name=name, path=str(path), data=data,
                       options=options)


__all__ = [
    "ingest_text",
    "ingest_path",
    "NormalizeOptions",
    "normalize_workflow",
    "workflow_stats",
    "workflow_fingerprint",
]
