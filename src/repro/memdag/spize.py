"""Level-based SP-ization: the layered traversal, for any block.

Kayaaslan et al. [18] transform a general DAG into a series-parallel one
before optimizing the traversal; any SP-ization adds synchronization, so the
resulting peak is an upper bound realized by an actual topological order of
the *original* graph. The cheapest useful SP-ization is the layered one:
the block becomes a series of levels, each level a parallel composition of
its tasks. The corresponding traversal executes level by level; within a
level (tasks are mutually independent) the hill-valley merge orders the
tasks optimally.

The engine runs on every block, series-parallel or not. On a block whose
levels already form a chain of junction tasks and bundles of one-task
branches, its order is exactly the ``sp`` engine's, and
:func:`certified_layered_order` says so (see its docstring).
"""

from __future__ import annotations

from operator import lt
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.memdag.model import BlockStatics
from repro.memdag.segments import merge_key
from repro.workflow.graph import Workflow

Node = Hashable


def layered_traversal(wf: Workflow, block: Optional[Set[Node]] = None) -> List[Node]:
    """Level-by-level traversal; within each level, optimal independent merge.

    Levels are longest-path depths inside the block. Tasks of a level are
    pairwise independent, so each is a one-segment sequence and the
    hill-valley merge rule gives the best intra-level order.
    """
    block_set = set(block) if block is not None else set(wf.tasks())
    return certified_layered_order(BlockStatics(wf, block_set))[0]


def certified_layered_order(st: BlockStatics) -> Tuple[List[Node], bool]:
    """``(order, sp_agrees)``: :func:`layered_traversal` of a block whose
    statics are at hand, and whether the series-parallel engine is certain
    to return the same order.

    ``sp_agrees`` holds when

    1. every in-block edge joins adjacent levels,
    2. only tasks of the last level lack in-block children,
    3. no two adjacent levels both hold two or more tasks, and
    4. in every level of two or more tasks the merge keys strictly
       increase after the sort (``<``, so a NaN key fails).

    Augmented with its virtual terminals, such a block is a chain: each
    level is a single junction task or a bundle of one-task branches
    between two junctions (or a terminal), joined to both. The ``sp``
    engine emits the junctions in series order and each bundle as one
    stable sort of one-segment sequences by ``merge_key(a[u],
    delta[u])``, the key sorted by here; with distinct keys that sort does
    not depend on the order of the branches, so both orders are equal.
    """
    kids = st.kids
    # longest-path level restricted to block-internal edges, pushed from
    # each task to its children in Kahn order. A task's level is 0 until
    # its first parent sets it, so any other value met on a later edge is
    # a parent on another level (check 1).
    indeg = dict(st.n_pred)
    levels = dict.fromkeys(st.block, 0)
    ready = [u for u in st.block if indeg[u] == 0]
    adjacent = True
    sinks = 0
    head = 0
    while head < len(ready):
        u = ready[head]
        head += 1
        below = levels[u] + 1
        vs = kids[u]
        if not vs:
            sinks += 1
        for v in vs:
            lv = levels[v]
            if lv != below:
                if lv:
                    adjacent = False
                if lv < below:
                    levels[v] = below
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    if len(ready) != len(st.block):
        raise ValueError("block graph contains a cycle")

    by_level: Dict[int, List[Node]] = {}
    for u in ready:
        by_level.setdefault(levels[u], []).append(u)

    # a level's tasks are one-segment sequences, so the hill-valley merge
    # of the level is a stable sort by merge key
    a, delta = st.a, st.delta
    order: List[Node] = []
    agrees = adjacent
    wide_before = False
    tasks: List[Node] = []
    for lvl in sorted(by_level):
        tasks = by_level[lvl]
        if len(tasks) == 1:
            order += tasks
            wide_before = False
            continue
        keys = [merge_key(a[u], delta[u]) for u in tasks]
        ranks = sorted(range(len(tasks)), key=keys.__getitem__)
        order += [tasks[i] for i in ranks]
        if agrees:
            ranked = [keys[i] for i in ranks]
            agrees = not wide_before and all(map(lt, ranked, ranked[1:]))
        wide_before = True
    # the last level's tasks have no in-block children, so it holds every
    # sink exactly when the counts agree (check 2)
    return order, agrees and sinks == len(tasks)
