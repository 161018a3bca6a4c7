"""Workflow generators reproducing the paper's evaluation corpus (Sec. 5.1.1).

* :mod:`repro.generators.families` — WfGen/WfCommons-style topologies for
  the seven model workflows (1000Genome, BLAST, BWA, Epigenomics, Montage,
  Seismology, SoyKB) at any task count;
* :mod:`repro.generators.weights` — the paper's weight distributions
  (edges U[1,10], work U[1,1000], memory U[1,192]);
* :mod:`repro.generators.realworld` — nf-core-like small workflows (11-58
  tasks) with simulated Lotaru historical traces (heavy-tailed weights for
  a subset of tasks, weight 1 elsewhere, min-normalized);
* :mod:`repro.generators.random_dag` — layered random DAGs for tests and
  property-based checks.
"""

from repro.generators.families import (
    WORKFLOW_FAMILIES,
    FANNED_OUT_FAMILIES,
    CHAIN_LIKE_FAMILIES,
    generate_workflow,
    generate_topology,
)
from repro.generators.weights import (
    assign_paper_weights,
    WeightRanges,
    PAPER_WEIGHTS,
)
from repro.generators.realworld import (
    REAL_WORKFLOW_NAMES,
    generate_real_workflow,
)
from repro.generators.random_dag import random_layered_dag, random_workflow

__all__ = [
    "WORKFLOW_FAMILIES",
    "FANNED_OUT_FAMILIES",
    "CHAIN_LIKE_FAMILIES",
    "generate_workflow",
    "generate_topology",
    "assign_paper_weights",
    "WeightRanges",
    "PAPER_WEIGHTS",
    "REAL_WORKFLOW_NAMES",
    "generate_real_workflow",
    "random_layered_dag",
    "random_workflow",
]
