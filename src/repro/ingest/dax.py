"""Importer for Pegasus DAX (Directed Acyclic Graph in XML) workflows.

The Pegasus WMS describes abstract workflows as ``<adag>`` documents:
``<job>`` elements with ``<uses>`` file records, and ``<child>``/
``<parent>`` reference pairs for the dependency structure. The synthetic
workflow generators behind many scheduling papers (Montage, CyberShake,
Epigenomics, Inspiral, Sipht) emit exactly this format, which makes it
the lingua franca of workflow-scheduling benchmarks.

Mapping onto the paper's model:

* the job's ``runtime`` attribute → task **work** (defaults to 1.0 — the
  paper's handling of tasks without historical data);
* a ``<profile key="memory">`` element → task **memory** (defaults 0);
* edge cost = bytes transferred: sizes of ``<uses link="output">`` files
  of the parent that the child lists as ``link="input"`` (the reader's
  recorded size wins when both sides carry one).

Parsed with :mod:`xml.etree` only — no external dependency — and
namespace-agnostic (DAX 2 and 3 wrap everything in a schema namespace).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Dict, Optional

from repro.ingest.normalize import WorkflowAssembler
from repro.utils.errors import IngestError
from repro.workflow.graph import Workflow


def _local(tag: Any) -> str:
    """Element tag without its XML-namespace prefix."""
    return tag.rsplit("}", 1)[-1] if isinstance(tag, str) else ""


def sniff(text: str) -> bool:
    head = text[:4096].lower()
    return "<adag" in head


def _float_attr(element, attr: str, default: float, *,
                path: Optional[str], what: str) -> float:
    raw = element.get(attr)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise IngestError(f"{what}: non-numeric {attr}={raw!r}",
                          path=path) from None


def import_dax(text: str, *, name: Optional[str] = None,
               path: Optional[str] = None, data: Any = None) -> Workflow:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        line = exc.position[0] if getattr(exc, "position", None) else None
        raise IngestError(f"invalid XML: {exc.msg.split(':')[0]}",
                          path=path, line=line) from None
    if _local(root.tag) != "adag":
        raise IngestError(
            f"not a DAX document (expected an <adag> root, found "
            f"<{_local(root.tag)}>)", path=path)

    asm = WorkflowAssembler(str(name or root.get("name") or "workflow"),
                            path=path)
    reads: Dict[str, Dict[str, float]] = {}
    writes: Dict[str, Dict[str, float]] = {}

    for element in root:
        if _local(element.tag) != "job":
            continue
        jid = element.get("id")
        if not jid:
            raise IngestError("<job> without an id attribute", path=path)
        work = _float_attr(element, "runtime", 1.0, path=path,
                           what=f"job {jid!r}")
        memory = 0.0
        ins: Dict[str, float] = {}
        outs: Dict[str, float] = {}
        for sub in element:
            tag = _local(sub.tag)
            if tag == "uses":
                fname = sub.get("file") or sub.get("name")
                if not fname:
                    continue
                size = _float_attr(sub, "size", 0.0, path=path,
                                   what=f"job {jid!r} uses {fname!r}")
                link = (sub.get("link") or "").lower()
                if link == "input":
                    ins[fname] = size
                elif link == "output":
                    outs[fname] = size
            elif tag == "profile" and (sub.get("key") or "").lower() == "memory":
                try:
                    memory = float((sub.text or "").strip() or 0.0)
                except ValueError:
                    raise IngestError(
                        f"job {jid!r}: non-numeric memory profile "
                        f"{sub.text!r}", path=path) from None
        asm.add_task(jid, work, memory)
        reads[jid] = ins
        writes[jid] = outs

    for element in root:
        if _local(element.tag) != "child":
            continue
        child = element.get("ref")
        if not child:
            raise IngestError("<child> without a ref attribute", path=path)
        for sub in element:
            if _local(sub.tag) != "parent":
                continue
            parent = sub.get("ref")
            if not parent:
                raise IngestError(
                    f"<parent> of child {child!r} without a ref attribute",
                    path=path)
            cost = 0.0
            child_reads = reads.get(child, {})
            for fname, size in writes.get(parent, {}).items():
                if fname in child_reads:
                    cost += child_reads[fname] or size
            asm.add_edge(parent, child, cost)
    return asm.finish()
