"""Workflow model: weighted DAGs of tasks with memory and communication costs.

The central class is :class:`~repro.workflow.graph.Workflow`, a directed
acyclic graph whose vertices carry a work weight ``w_u`` (operation count)
and a memory weight ``m_u``, and whose edges carry a file size ``c_{u,v}``
(Section 3.1 of the paper). All higher layers — the memDag traversal engine,
the acyclic partitioner and the mapping heuristics — consume this class.
"""

from repro.workflow.graph import Workflow
from repro.workflow.analysis import (
    critical_path,
    topological_levels,
    fanout_statistics,
    WorkflowStats,
    workflow_statistics,
)
from repro.workflow.validation import validate_workflow
from repro.workflow.io import (
    workflow_to_dict,
    workflow_from_dict,
    save_workflow_json,
    workflow_to_dot,
)
from repro.workflow.transform import scale_memory, normalize_memory_to

__all__ = [
    "Workflow",
    "critical_path",
    "topological_levels",
    "fanout_statistics",
    "WorkflowStats",
    "workflow_statistics",
    "validate_workflow",
    "workflow_to_dict",
    "workflow_from_dict",
    "save_workflow_json",
    "workflow_to_dot",
    "scale_memory",
    "normalize_memory_to",
]
