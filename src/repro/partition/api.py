"""Public entry points of the acyclic DAG partitioner.

:func:`acyclic_partition` plays the role of ``dagP`` in Step 1 of
DagHetPart; :func:`bisect_block` plays its role inside ``FitBlock``
(Algorithm 2, ``Partition(V_m, 2)``).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.partition.coarsen import (
    CoarseningHierarchy,
    CoarseningLevel,
    default_balance_cap,
)
from repro.partition.contraction import CGraph
from repro.partition.initial import initial_partition, topological_order
from repro.partition.refine import edge_cut, refine
from repro.utils.errors import InvalidPartitionError, PartitionSplitError
from repro.workflow.graph import Workflow

Node = Hashable

#: named node-weight functions for balancing
WEIGHT_FUNCTIONS = ("requirement", "work", "memory", "unit")


def _node_weight_fn(wf: Workflow, weight: str) -> Callable[[Node], float]:
    if weight == "requirement":
        return lambda u: max(wf.task_requirement(u), 1e-9)
    if weight == "work":
        return lambda u: max(wf.work(u), 1e-9)
    if weight == "memory":
        return lambda u: max(wf.memory(u), 1e-9)
    if weight == "unit":
        return lambda u: 1.0
    raise ValueError(f"unknown weight function {weight!r}; valid: {WEIGHT_FUNCTIONS}")


class PartitionContext:
    """The ``k``-independent state of partitioning one node set of ``wf``.

    A ``k'`` sweep partitions the same graph once per ``k'``. The finest
    :class:`CGraph`, its coarsening hierarchy (one per balance cap, see
    :class:`~repro.partition.coarsen.CoarseningHierarchy`) and the
    DFS/BFS orders of each coarsest graph do not depend on ``k``, so a
    context built once and passed to every :func:`acyclic_partition` call
    computes each of them once, lazily, inside the first call that needs
    it. Every call's blocks are exactly those of a fresh call.
    """

    __slots__ = ("wf", "weight", "nodes", "_graph", "_hierarchies", "_orders")

    def __init__(self, wf: Workflow, weight: str = "requirement",
                 nodes: Optional[Iterable[Node]] = None) -> None:
        self.wf = wf
        self.weight = weight
        self.nodes = nodes
        self._graph: Optional[CGraph] = None
        self._hierarchies: Dict[float, CoarseningHierarchy] = {}
        self._orders: Dict[Tuple[CGraph, str], List[Node]] = {}

    @property
    def graph(self) -> CGraph:
        """The finest graph: every task (or the node subset), weighted."""
        if self._graph is None:
            wf, nodes = self.wf, self.nodes
            node_weight = _node_weight_fn(wf, self.weight)
            if nodes is None:
                self._graph = CGraph.from_workflow(wf, node_weight)
            else:
                self._graph = CGraph.from_subset(wf, nodes, node_weight)
        return self._graph

    def levels(self, target: int) -> List[CoarseningLevel]:
        """The coarsening levels of the graph for ``target``, from the
        hierarchy of its default cap."""
        g = self.graph
        cap = default_balance_cap(g, target)
        hierarchy = self._hierarchies.get(cap)
        if hierarchy is None:
            hierarchy = self._hierarchies[cap] = CoarseningHierarchy(g, cap)
        return hierarchy.levels_for(target)

    def order(self, g: CGraph, strategy: str) -> List[Node]:
        """The ``strategy`` topological order of ``g`` (a level graph)."""
        key = (g, strategy)
        order = self._orders.get(key)
        if order is None:
            order = self._orders[key] = topological_order(g, strategy)
        return order


def _finalize(g_top: CGraph, part: Dict[Node, int]) -> List[Set[Node]]:
    """Convert a node->index map into a dense list of non-empty task sets."""
    by_index: Dict[int, Set[Node]] = {}
    for u, b in part.items():
        by_index.setdefault(b, set()).add(u)
    return [by_index[b] for b in sorted(by_index)]


def _check_acyclic_quotient(wf: Workflow, blocks: List[Set[Node]],
                            nodes: Optional[Set[Node]] = None) -> None:
    index: Dict[Node, int] = {}
    for i, block in enumerate(blocks):
        for u in block:
            index[u] = i
    succ: Dict[int, Set[int]] = {i: set() for i in range(len(blocks))}
    for u, bi in index.items():
        for v in wf.children(u):
            if v in index:
                bj = index[v]
                if bj != bi:
                    succ[bi].add(bj)
    indeg = {i: 0 for i in succ}
    for i, outs in succ.items():
        for j in outs:
            indeg[j] += 1
    ready = [i for i in succ if indeg[i] == 0]
    seen = 0
    while ready:
        i = ready.pop()
        seen += 1
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                ready.append(j)
    if seen != len(blocks):
        raise InvalidPartitionError("partition induces a cyclic quotient graph")


def acyclic_partition(wf: Workflow, k: int, *, weight: str = "requirement",
                      eps: float = 0.10, coarsen_target: Optional[int] = None,
                      refine_passes: int = 4, strategy: str = "best",
                      nodes: Optional[Iterable[Node]] = None,
                      context: Optional[PartitionContext] = None) -> List[Set[Node]]:
    """Partition (a subset of) ``wf`` into at most ``k`` acyclic blocks.

    Multilevel: coarsen, initial topological chunking, refine at every
    uncoarsening level. Guarantees: blocks are non-empty and disjoint,
    cover the requested node set, and the quotient graph is acyclic
    (verified before returning). May return fewer than ``k`` blocks when
    the (coarsened) graph has fewer nodes, as dagP does on tiny inputs.

    Parameters
    ----------
    weight:
        Balancing weight per task: ``"requirement"`` (default; the memory
        footprint proxy, since memory is the binding constraint),
        ``"work"``, ``"memory"``, or ``"unit"``.
    eps:
        Balance tolerance for refinement moves.
    strategy:
        Initial-order strategy: ``"dfs"`` (chains contiguous), ``"bfs"``
        (levels contiguous), or ``"best"`` (default — run both on the
        coarsest graph and keep the one with the smaller refined cut; the
        multilevel pipeline amortizes the extra seed to a few percent).
    nodes:
        Restrict partitioning to this subset (used for block bisection).
    context:
        A :class:`PartitionContext` of ``wf`` and ``weight`` shared by
        several calls (a ``k'`` sweep); it carries its own node subset, so
        ``nodes`` must then be ``None``. Without one, a fresh context is
        built for this call.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if context is None:
        context = PartitionContext(wf, weight, nodes)
    elif context.wf is not wf or context.weight != weight or nodes is not None:
        raise ValueError("context belongs to another workflow, weight or node set")
    g = context.graph
    n = len(g)
    if n == 0:
        return []
    if k == 1 or n == 1:
        blocks = [set(g.nodes())]
        _check_acyclic_quotient(wf, blocks)
        return blocks

    target = coarsen_target if coarsen_target is not None else max(4 * k, 64)
    levels = context.levels(target)
    coarsest = levels[-1].graph if levels else g

    candidates = []
    for seed_strategy in (("dfs", "bfs") if strategy == "best" else (strategy,)):
        candidate = initial_partition(coarsest, k, strategy=seed_strategy,
                                      order=context.order(coarsest, seed_strategy))
        refine(coarsest, candidate, k, eps=eps, max_passes=refine_passes)
        candidates.append((edge_cut(coarsest, candidate), candidate))
    part = min(candidates, key=lambda t: t[0])[1]

    # project back through the hierarchy, refining at each level;
    # levels[i].assignment maps nodes of the level's *input* graph
    # (levels[i-1].graph, or g for i == 0) to clusters of levels[i].graph
    for i in range(len(levels) - 1, -1, -1):
        level = levels[i]
        part = {u: part[level.assignment[u]] for u in level.assignment}
        input_graph = levels[i - 1].graph if i > 0 else g
        refine(input_graph, part, k, eps=eps, max_passes=refine_passes)

    blocks = _finalize(g, part)
    _check_acyclic_quotient(wf, blocks)
    return blocks


def bisect_block(wf: Workflow, block: Iterable[Node], *, weight: str = "requirement",
                 eps: float = 0.10) -> List[Set[Node]]:
    """Split a block into (at least) two acyclic sub-blocks (``FitBlock``).

    Raises :class:`PartitionSplitError` for singleton blocks — Step 2
    treats such blocks as unassignable and defers them to Step 3.
    """
    block_set = set(block)
    if len(block_set) < 2:
        raise PartitionSplitError(f"cannot split a block of {len(block_set)} task(s)")
    sub_blocks = acyclic_partition(wf, 2, weight=weight, eps=eps, nodes=block_set)
    if len(sub_blocks) < 2:
        raise PartitionSplitError("bisection failed to separate the block")
    return sub_blocks


def partition_quality(wf: Workflow, blocks: List[Set[Node]],
                      weight: str = "requirement") -> Dict[str, float]:
    """Diagnostics: weighted cut, imbalance, and block count."""
    node_weight = _node_weight_fn(wf, weight)
    index: Dict[Node, int] = {}
    for i, b in enumerate(blocks):
        for u in b:
            index[u] = i
    cut = sum(c for u, v, c in wf.edges()
              if u in index and v in index and index[u] != index[v])
    weights = [sum(node_weight(u) for u in b) for b in blocks]
    avg = sum(weights) / len(weights) if weights else 0.0
    imbalance = (max(weights) / avg - 1.0) if avg > 0 else 0.0
    return {"cut": cut, "imbalance": imbalance, "n_blocks": float(len(blocks))}
