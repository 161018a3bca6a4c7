"""Step 2 of DagHetPart: ``BiggestAssign`` and ``FitBlock`` (Algorithms 1-2).

Blocks from Step 1 enter a max-priority queue keyed by memory requirement;
processors queue up by decreasing memory. The biggest block is fitted onto
the biggest free processor; blocks that do not fit are bisected by the
partitioner and their pieces re-queued. When processors run out, remaining
blocks are partitioned down to the smallest processor's memory (without
being mapped) so that Step 3 has mergeable pieces to work with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set

from repro.memdag.requirement import RequirementCache
from repro.partition.api import bisect_block
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.utils.errors import PartitionSplitError
from repro.utils.pqueue import AddressableMaxPQ
from repro.workflow.graph import Workflow

Node = Hashable


@dataclass
class AssignmentState:
    """Outcome of Step 2: blocks, partial assignment, and split diagnostics."""

    blocks: Dict[int, Set[Node]] = field(default_factory=dict)
    assigned: Dict[int, Processor] = field(default_factory=dict)
    unassigned: List[int] = field(default_factory=list)
    #: blocks that could not be split small enough (singletons too large)
    oversized: List[int] = field(default_factory=list)
    n_splits: int = 0
    _ids: "itertools.count" = field(default_factory=itertools.count, repr=False)

    def next_id(self) -> int:
        return next(self._ids)


def fit_block(wf: Workflow, block_id: int, state: AssignmentState,
              queue: AddressableMaxPQ, proc: Processor, do_map: bool,
              cache: RequirementCache, weight: str = "requirement") -> Optional[int]:
    """Algorithm 2. Returns the placed block id, or None.

    If the block fits ``proc`` and ``do_map`` is set, it is assigned there.
    If the block fits but ``do_map`` is false, nothing happens (the block
    is already small enough for the smallest processor). Otherwise the
    block is bisected and the sub-blocks re-enter the queue; singleton
    blocks that cannot be split are recorded as ``oversized``.
    """
    tasks = state.blocks[block_id]
    requirement = cache.peak(tasks)
    if requirement <= proc.memory:
        if do_map:
            state.assigned[block_id] = proc
            return block_id
        state.unassigned.append(block_id)
        return None
    try:
        pieces = bisect_block(wf, tasks, weight=weight)
    except PartitionSplitError:
        state.oversized.append(block_id)
        return None
    state.n_splits += 1
    del state.blocks[block_id]
    for piece in pieces:
        new_id = state.next_id()
        state.blocks[new_id] = piece
        queue.push(new_id, cache.peak(piece))
    return None


def biggest_assign(wf: Workflow, cluster: Cluster, partition: List[Set[Node]],
                   cache: Optional[RequirementCache] = None,
                   weight: str = "requirement") -> AssignmentState:
    """Algorithm 1. Produces a valid *partial* assignment.

    Every assigned block fits its processor; leftover blocks (more blocks
    than processors, or unsplittable oversized blocks) are returned
    unassigned for Step 3 to merge.
    """
    cache = cache or RequirementCache(wf)
    state = AssignmentState()
    queue = AddressableMaxPQ()
    for tasks in partition:
        bid = state.next_id()
        state.blocks[bid] = set(tasks)
        queue.push(bid, cache.peak(tasks))

    free_procs: List[Processor] = cluster.by_memory_desc()
    head = 0
    while queue and head < len(free_procs):
        block_id, _ = queue.extract_max()
        if block_id not in state.blocks:
            continue
        placed = fit_block(wf, block_id, state, queue, free_procs[head],
                           do_map=True, cache=cache, weight=weight)
        if placed is not None:
            head += 1  # processor now busy

    if queue:
        p_min = cluster.smallest_memory_processor()
        while queue:
            block_id, _ = queue.extract_max()
            if block_id not in state.blocks:
                continue
            fit_block(wf, block_id, state, queue, p_min,
                      do_map=False, cache=cache, weight=weight)

    # oversized blocks stay in state.blocks but are neither assigned nor in
    # `unassigned`; surface them as unassigned so Step 3 sees every block
    for bid in state.oversized:
        if bid in state.blocks and bid not in state.unassigned:
            state.unassigned.append(bid)
    return state
