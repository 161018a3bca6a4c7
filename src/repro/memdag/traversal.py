"""Traversal generators and the ``memdag_traversal`` front-end.

Three candidate engines, cheapest first:

* :func:`best_first_traversal` — greedy topological order with static
  priorities (memory releasers before producers, smaller activations
  first); works on any DAG, O((n + e) log n).
* :func:`repro.memdag.spize.layered_traversal` — level-synchronized order
  with optimal intra-level interleaving.
* :func:`sp_traversal` — exact series-parallel engine: SP-tree
  decomposition with hill-valley merging of parallel branches; only
  applicable when the (source/sink augmented) block is TTSP.

:func:`memdag_traversal` evaluates the applicable candidates under the real
semantics and returns the best — the returned peak is therefore always the
peak of a *valid* traversal, never an unachievable estimate. The engines
share one :class:`~repro.memdag.model.BlockStatics` pass and are scored by
the fused :func:`~repro.memdag.model.traversal_peak`; a
:class:`MemdagSearch` runs them one at a time, so a capacity query can stop
at the first candidate that fits and a later exact query resume it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.memdag.model import BlockStatics, traversal_peak
from repro.memdag.segments import Segment, decompose_profile, merge_segment_sequences
from repro.memdag.sp_tree import SPTree, sp_decompose
from repro.memdag.spize import layered_order
from repro.workflow.graph import Workflow

Node = Hashable

#: blocks larger than this skip the SP engine (decomposition cost dominates)
SP_SIZE_LIMIT = 20_000

#: blocks up to this size may use the exact branch-and-bound engine
EXACT_SIZE_LIMIT = 12

#: every engine, in the order they run and break ties (cheapest first)
ENGINES = ("best_first", "layered", "sp", "exact")


@dataclass(frozen=True)
class TraversalResult:
    """A valid traversal of a block and its peak memory."""

    order: Tuple[Node, ...]
    peak: float
    method: str


def best_first_traversal(wf: Workflow, block: Optional[Set[Node]] = None) -> List[Node]:
    """Greedy min-peak topological order.

    Among ready tasks, prefer (1) net memory releasers (``delta <= 0``),
    (2) smaller activation ``a(u)``, (3) smaller ``delta``; ties broken by
    insertion order for determinism. Priorities are static, so a single
    heap suffices.
    """
    block_set = set(block) if block is not None else set(wf.tasks())
    return _best_first_order(wf, BlockStatics(wf, block_set))


def _best_first_order(wf: Workflow, st: BlockStatics) -> List[Node]:
    a, delta, kids = st.a, st.delta, st.kids
    seq = wf.positions()

    def prio(u: Node) -> Tuple[int, float, float, int]:
        d = delta[u]
        return (0 if d <= 0 else 1, a[u], d, seq[u])

    pending = dict(st.n_pred)
    heap = [prio(u) + (u,) for u in st.block if pending[u] == 0]
    heapq.heapify(heap)
    order: List[Node] = []
    while heap:
        *_, u = heapq.heappop(heap)
        order.append(u)
        for v in kids[u]:
            pending[v] -= 1
            if pending[v] == 0:
                heapq.heappush(heap, prio(v) + (v,))
    if len(order) != len(st.block):
        raise ValueError("block graph contains a cycle")
    return order


def _sp_order(tree: SPTree, a: Dict[Node, float], delta: Dict[Node, float]) -> List[Node]:
    """Recursive traversal of an SP-tree's internal vertices."""
    if tree.kind == "leaf":
        return []
    if tree.kind == "series":
        order: List[Node] = []
        for i, child in enumerate(tree.children):
            order.extend(_sp_order(child, a, delta))
            if i < len(tree.via):
                order.append(tree.via[i])
        return order
    # parallel: branches share only the terminals -> independent sequences
    sequences: List[List[Segment]] = []
    for child in tree.children:
        child_order = _sp_order(child, a, delta)
        if child_order:
            sequences.append(decompose_profile(child_order, a, delta))
    merged, _ = merge_segment_sequences(sequences)
    return merged


_VIRTUAL = itertools.count()


def sp_traversal(wf: Workflow, block: Optional[Set[Node]] = None) -> Optional[List[Node]]:
    """Series-parallel traversal, or ``None`` when the block is not TTSP.

    Multi-source/multi-sink blocks are augmented with a virtual source and
    sink (zero memory effect) before decomposition; the virtual terminals
    are stripped from the returned order.
    """
    block_set = set(block) if block is not None else set(wf.tasks())
    return _series_parallel_order(BlockStatics(wf, block_set))


def _series_parallel_order(st: BlockStatics) -> Optional[List[Node]]:
    block_set, kids = st.block, st.kids
    if not block_set:
        return []
    if len(block_set) == 1:
        return list(block_set)

    edges: List[Tuple[Node, Node]] = [(u, v) for u in block_set for v in kids[u]]
    sources = [u for u in block_set if st.n_pred[u] == 0]
    sinks = [u for u in block_set if not kids[u]]
    if not sources or not sinks:
        return None

    tag = next(_VIRTUAL)
    vsrc: Node = ("__sp_source__", tag)
    vsink: Node = ("__sp_sink__", tag)
    edges.extend((vsrc, s) for s in sources)
    edges.extend((t, vsink) for t in sinks)

    tree = sp_decompose(edges, vsrc, vsink)
    if tree is None:
        return None

    # the virtual terminals are the root's source and sink, never one of
    # the vertices _sp_order emits, so they need no statics of their own
    order = _sp_order(tree, st.a, st.delta)
    if len(order) != len(block_set):
        return None
    return order


def _engine_order(wf: Workflow, st: BlockStatics,
                  method: str) -> Optional[Tuple[float, Tuple[Node, ...]]]:
    """``(peak, order)`` of one engine on the block, ``None`` if it does not apply."""
    if method == "best_first":
        order = _best_first_order(wf, st)
    elif method == "layered":
        order = layered_order(st)
    elif method == "sp":
        if len(st.block) > SP_SIZE_LIMIT:
            return None
        order = _series_parallel_order(st)
        if order is None:
            return None
    else:  # exact: its own search already yields the peak
        if len(st.block) > EXACT_SIZE_LIMIT:
            return None
        result = _brute_force(st)
        return result.peak, result.order
    return traversal_peak(st, order), tuple(order)


class MemdagSearch:
    """The engines run so far for one block, resumable across calls.

    ``candidates`` holds ``(peak, method, order)`` for every engine run so
    far and ``pending`` the configured engines still to run, both in
    :data:`ENGINES` order. The block's requirement is the smallest peak
    over all candidates, the earliest engine winning ties, so a search
    stopped early (:meth:`run` with a capacity) and resumed later ends with
    exactly the result of an uninterrupted one.
    """

    __slots__ = ("methods", "pending", "candidates")

    def __init__(self, methods: Sequence[str]):
        self.methods = tuple(methods)
        self.pending: List[str] = [m for m in ENGINES if m in methods]
        self.candidates: List[Tuple[float, str, Tuple[Node, ...]]] = []

    def fitting(self, capacity: float) -> Optional[TraversalResult]:
        """The first candidate found so far whose peak is ``<= capacity``."""
        for peak, method, order in self.candidates:
            if peak <= capacity:
                return TraversalResult(order=order, peak=peak, method=method)
        return None

    def run(self, wf: Workflow, block: Set[Node],
            capacity: Optional[float] = None) -> TraversalResult:
        """Run the pending engines on ``block``; return the best candidate.

        With ``capacity``, stop at the first new candidate whose peak is
        ``<= capacity`` while engines are still pending and return it
        instead: it answers "does the block fit?" (the requirement is at
        most its peak) without being the requirement. Once every engine
        has run, the exact requirement is returned.
        """
        if not block:
            self.pending.clear()
            return TraversalResult(order=(), peak=0.0, method="empty")
        st = BlockStatics(wf, block) if self.pending else None
        while self.pending:
            method = self.pending.pop(0)
            found = _engine_order(wf, st, method)
            if found is None:
                continue
            peak, order = found
            self.candidates.append((peak, method, order))
            if capacity is not None and peak <= capacity and self.pending:
                return TraversalResult(order=order, peak=peak, method=method)
        if not self.candidates:
            raise ValueError(f"no traversal engines selected from {self.methods!r}")
        peak, method, order = min(self.candidates, key=lambda t: t[0])
        return TraversalResult(order=order, peak=peak, method=method)


def memdag_traversal(wf: Workflow, block: Optional[Set[Node]] = None,
                     methods: Sequence[str] = ("best_first", "layered", "sp")) -> TraversalResult:
    """Best valid traversal among the requested engines (the memDag role).

    Engines run in :data:`ENGINES` order whatever the order of
    ``methods``; each candidate's peak is that of
    :func:`repro.memdag.model.peak_of_traversal`, bit for bit (``exact``
    reports the peak its own search computed), and the smallest peak
    wins, with ties resolved toward the cheaper engine.
    """
    block_set = set(block) if block is not None else set(wf.tasks())
    return MemdagSearch(methods).run(wf, block_set)


def brute_force_min_peak(wf: Workflow, block: Optional[Set[Node]] = None,
                         limit: int = 10) -> TraversalResult:
    """Exhaustive minimum over all topological orders (tests only).

    Branch-and-bound DFS; refuses blocks larger than ``limit`` tasks.
    """
    block_set = set(block) if block is not None else set(wf.tasks())
    n = len(block_set)
    if n > limit:
        raise ValueError(f"brute force limited to {limit} tasks, got {n}")
    return _brute_force(BlockStatics(wf, block_set))


def _brute_force(st: BlockStatics) -> TraversalResult:
    block_set = st.block
    n = len(block_set)
    if n == 0:
        return TraversalResult(order=(), peak=0.0, method="brute")

    a, delta, kids = st.a, st.delta, st.kids
    best_peak = float("inf")
    best_order: List[Node] = []
    pending = dict(st.n_pred)
    order: List[Node] = []

    def dfs(live: float, peak: float) -> None:
        nonlocal best_peak, best_order
        if peak >= best_peak:
            return
        if len(order) == n:
            best_peak = peak
            best_order = list(order)
            return
        for u in list(block_set):
            if pending[u] == 0 and u not in order_set:
                usage = live + a[u]
                order.append(u)
                order_set.add(u)
                for v in kids[u]:
                    pending[v] -= 1
                dfs(live + delta[u], max(peak, usage))
                for v in kids[u]:
                    pending[v] += 1
                order_set.discard(u)
                order.pop()

    order_set: Set[Node] = set()
    dfs(0.0, 0.0)
    return TraversalResult(order=tuple(best_order), peak=best_peak, method="brute")
