"""Core: the paper's contribution — quotient-graph mapping heuristics.

* :mod:`repro.core.quotient` — the quotient DAG ``Gamma`` with incremental
  merge/unmerge (Section 3.3, Fig. 1);
* :mod:`repro.core.makespan` — bottom weights, makespan, critical path
  (Eqs. (1)-(2));
* :mod:`repro.core.evaluator` — incremental makespan engine with
  O(affected-ancestors) delta evaluation for the merge/swap searches;
* :mod:`repro.core.mapping` — validated block-to-processor mappings;
* :mod:`repro.core.baseline` — the DagHetMem baseline (Section 4.1);
* :mod:`repro.core.assignment` — Step 2 (``BiggestAssign``/``FitBlock``);
* :mod:`repro.core.merging` — Step 3 (``MergeUnassignedToAssigned``);
* :mod:`repro.core.swaps` — Step 4 (``Swap`` + idle-processor moves);
* :mod:`repro.core.heuristic` — the DagHetPart orchestrator with the
  ``k'`` sweep (Section 4.2).
"""

from repro.core.quotient import QuotientGraph, QBlock
from repro.core.makespan import bottom_weights, makespan, critical_path
from repro.core.evaluator import MakespanEvaluator
from repro.core.mapping import Mapping, BlockAssignment, simulate_mapping
from repro.core.baseline import dag_het_mem
from repro.core.assignment import biggest_assign, fit_block, AssignmentState
from repro.core.merging import merge_unassigned_to_assigned, find_ms_opt_merge
from repro.core.swaps import improve_by_swaps, move_critical_to_idle
from repro.core.heuristic import (
    DagHetPartConfig,
    SweepOutcome,
    SweepPoint,
    dag_het_part_sweep,
)

__all__ = [
    "QuotientGraph",
    "QBlock",
    "bottom_weights",
    "makespan",
    "critical_path",
    "MakespanEvaluator",
    "Mapping",
    "BlockAssignment",
    "simulate_mapping",
    "dag_het_mem",
    "biggest_assign",
    "fit_block",
    "AssignmentState",
    "merge_unassigned_to_assigned",
    "find_ms_opt_merge",
    "improve_by_swaps",
    "move_critical_to_idle",
    "dag_het_part_sweep",
    "DagHetPartConfig",
    "SweepOutcome",
    "SweepPoint",
]
