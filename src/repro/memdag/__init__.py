"""memDag substrate: peak-memory-minimizing traversals of (blocks of) DAGs.

Re-implementation of the role played by Kayaaslan et al.'s ``memDag``
algorithm [18] in the paper: given a workflow block, produce a topological
traversal whose peak memory consumption is as small as possible, and report
that peak as the block's memory requirement ``r_{V_i}``.

Engine composition (standing in for the memDag implementation itself: the
requirement is the smallest peak over the engines below, each peak that of
a valid traversal):

* :mod:`repro.memdag.model` — the exact memory semantics of a traversal
  (internal edges live between producer and consumer, external inputs are
  streamed, external outputs are retained until the block completes) and
  ``BlockStatics``, the per-task quantities all engines share, computed in
  one pass per block;
* :mod:`repro.memdag.segments` — hill-valley profile decomposition and the
  optimal merge of independent segment sequences (Liu-style);
* :mod:`repro.memdag.sp_tree` — recognition of two-terminal
  series-parallel DAGs by reduction, yielding the SP-tree the SP engine
  walks;
* :mod:`repro.memdag.spize` — level-based SP-ization: the layered
  traversal of any block, with a certificate that the SP engine would
  return the same order;
* :mod:`repro.memdag.traversal` — the candidate traversal generators and the
  ``memdag_traversal`` front-end that returns the best of them, skipping
  the SP engine where the layered certificate holds;
* :mod:`repro.memdag.requirement` — ``r_{V_i}`` for arbitrary blocks of a
  workflow, with caching keyed by the block's task set, and capacity
  queries (``RequirementCache.fits``) that run only the engines needed.
"""

from repro.memdag.model import (
    TraversalState,
    BlockPackingState,
    evaluate_traversal,
    peak_of_traversal,
)
from repro.memdag.segments import (
    Segment,
    profile_of_traversal,
    decompose_profile,
    merge_segment_sequences,
)
from repro.memdag.spize import layered_traversal
from repro.memdag.traversal import (
    best_first_traversal,
    sp_traversal,
    memdag_traversal,
    brute_force_min_peak,
    TraversalResult,
)
from repro.memdag.requirement import block_requirement, RequirementCache

__all__ = [
    "TraversalState",
    "BlockPackingState",
    "evaluate_traversal",
    "peak_of_traversal",
    "Segment",
    "profile_of_traversal",
    "decompose_profile",
    "merge_segment_sequences",
    "layered_traversal",
    "best_first_traversal",
    "sp_traversal",
    "memdag_traversal",
    "brute_force_min_peak",
    "TraversalResult",
    "block_requirement",
    "RequirementCache",
]
