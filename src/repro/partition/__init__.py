"""dagP substrate: multilevel acyclic partitioning of workflow DAGs.

Re-implementation of the role played by Herrmann et al.'s ``dagP`` [16] in
the paper: split a DAG into ``k`` balanced blocks with small edge cut such
that the quotient graph is **acyclic**. The pipeline is the classical
multilevel scheme specialized to DAGs:

1. **coarsening** (:mod:`repro.partition.coarsen`) — contract provably
   acyclicity-safe edges (unique-parent / unique-child rule) until the
   graph is small;
2. **initial partitioning** (:mod:`repro.partition.initial`) — cut a
   DFS-flavoured topological order into ``k`` weight-balanced contiguous
   chunks (contiguity in a topological order guarantees an acyclic
   quotient);
3. **refinement** (:mod:`repro.partition.refine`) — FM-style boundary moves
   between order-adjacent blocks that reduce the weighted edge cut while
   preserving acyclicity and balance, applied at every uncoarsening level.

The public entry points are :func:`repro.partition.api.acyclic_partition`
and :func:`repro.partition.api.bisect_block` (used by ``FitBlock``). A
:class:`~repro.partition.api.PartitionContext` passed to several
``acyclic_partition`` calls (DagHetPart's ``k'`` sweep) builds the graph,
its coarsening and its seed orders once for all of them.

Like dagP, the partitioner may return *fewer* blocks than requested on
small or chain-like graphs ("the partitioner is unable to decompose these
workflows into the desired number of blocks" — Section 5.2.1), and a
bisection request may yield more than two blocks; callers must tolerate
both, exactly as DagHetPart's Step 2 does.
"""

from repro.partition.contraction import CGraph
from repro.partition.coarsen import CoarseningLevel
from repro.partition.initial import initial_partition, dfs_topological_order
from repro.partition.refine import refine, edge_cut
from repro.partition.api import (
    PartitionContext,
    acyclic_partition,
    bisect_block,
    partition_quality,
)

__all__ = [
    "CGraph",
    "CoarseningLevel",
    "initial_partition",
    "dfs_topological_order",
    "refine",
    "edge_cut",
    "PartitionContext",
    "acyclic_partition",
    "bisect_block",
    "partition_quality",
]
