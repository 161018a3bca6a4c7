"""Memory scaling of workflows.

:func:`normalize_memory_to` is the paper's normalization of real-workflow
memory weights "to the maximum size of 192 to make sure they fit"
(Sec. 5.1.2), which :mod:`repro.generators.realworld` applies.
"""

from __future__ import annotations

from typing import Optional

from repro.workflow.graph import Workflow


def scale_memory(wf: Workflow, factor: float, name: Optional[str] = None) -> Workflow:
    """Return a copy with every ``m_u`` and edge cost multiplied by ``factor``.

    Edge costs scale together with task memory because both occupy RAM in
    the model; scaling only ``m_u`` would silently change the
    memory-to-communication balance.
    """
    out = Workflow(name or f"{wf.name}-mem{factor:g}x")
    for u in wf.tasks():
        out.add_task(u, wf.work(u), wf.memory(u) * factor)
    for u, v, c in wf.edges():
        out.add_edge(u, v, c * factor)
    return out


def normalize_memory_to(wf: Workflow, max_requirement: float, name: Optional[str] = None) -> Workflow:
    """Scale memory weights so the largest task requirement equals ``max_requirement``.

    Mirrors the paper's normalization of real workflows to the largest node
    memory (192). No-op when the workflow already fits.
    """
    peak = wf.max_task_requirement()
    if peak <= max_requirement or peak == 0.0:
        return wf.copy(name)
    return scale_memory(wf, max_requirement / peak, name or f"{wf.name}-norm{max_requirement:g}")
