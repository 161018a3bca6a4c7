"""Level-based SP-ization: a layered traversal for non-SP blocks.

Kayaaslan et al. [18] transform a general DAG into a series-parallel one
before optimizing the traversal; any SP-ization adds synchronization, so the
resulting peak is an upper bound realized by an actual topological order of
the *original* graph. The cheapest useful SP-ization is the layered one:
the block becomes a series of levels, each level a parallel composition of
its tasks. The corresponding traversal executes level by level; within a
level (tasks are mutually independent) the hill-valley merge orders the
tasks optimally.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

from repro.memdag.model import BlockStatics
from repro.memdag.segments import Segment, merge_segment_sequences
from repro.workflow.graph import Workflow

Node = Hashable


def layered_traversal(wf: Workflow, block: Optional[Set[Node]] = None) -> List[Node]:
    """Level-by-level traversal; within each level, optimal independent merge.

    Levels are longest-path depths inside the block. Tasks of a level are
    pairwise independent, so each is a one-segment sequence and the
    hill-valley merge rule gives the best intra-level order.
    """
    block_set = set(block) if block is not None else set(wf.tasks())
    return layered_order(BlockStatics(wf, block_set))


def layered_order(st: BlockStatics) -> List[Node]:
    """:func:`layered_traversal` of a block whose statics are at hand."""
    kids = st.kids
    # longest-path level restricted to block-internal edges, pushed from
    # each task to its children in Kahn order
    indeg = dict(st.n_pred)
    levels = dict.fromkeys(st.block, 0)
    ready = [u for u in st.block if indeg[u] == 0]
    head = 0
    while head < len(ready):
        u = ready[head]
        head += 1
        below = levels[u] + 1
        for v in kids[u]:
            if levels[v] < below:
                levels[v] = below
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if len(ready) != len(st.block):
        raise ValueError("block graph contains a cycle")

    by_level: Dict[int, List[Node]] = {}
    for u in ready:
        by_level.setdefault(levels[u], []).append(u)

    a, delta = st.a, st.delta
    order: List[Node] = []
    for lvl in sorted(by_level):
        sequences = [[Segment((u,), a[u], delta[u])] for u in by_level[lvl]]
        merged, _ = merge_segment_sequences(sequences)
        order.extend(merged)
    return order
