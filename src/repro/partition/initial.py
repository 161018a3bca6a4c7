"""Initial acyclic partitioning of the coarsest graph.

Any partition into blocks that are *contiguous in a topological order* has
an acyclic quotient (edges only point forward in the order, hence between
blocks only from lower to higher index). We use a DFS-flavoured
topological order — it keeps chains and subtrees contiguous, which yields
far smaller cuts than BFS/Kahn order on fan-out-heavy workflow DAGs — and
cut it into ``k`` chunks of nearly equal weight.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional

from repro.partition.contraction import CGraph

Node = Hashable


def dfs_topological_order(g: CGraph) -> List[Node]:
    """Topological order that follows chains depth-first.

    Kahn's algorithm with a LIFO ready stack: after finishing a node we
    immediately continue with one of its just-released children instead of
    rotating through all currently-ready nodes. Deterministic (insertion
    order of adjacency dicts).
    """
    indeg = {u: g.in_degree(u) for u in g.nodes()}
    stack = [u for u in g.nodes() if indeg[u] == 0]
    stack.reverse()  # pop() order == insertion order
    order: List[Node] = []
    while stack:
        u = stack.pop()
        order.append(u)
        released = [v for v in g.succ[u] if not _decrement(indeg, v)]
        # push released children so the heaviest-edge child is popped first
        for v in sorted(released, key=lambda x: g.succ[u][x]):
            stack.append(v)
    if len(order) != len(g):
        raise ValueError("graph contains a cycle")
    return order


def _decrement(indeg: Dict[Node, int], v: Node) -> bool:
    indeg[v] -= 1
    return indeg[v] != 0


def bfs_topological_order(g: CGraph) -> List[Node]:
    """Kahn's algorithm with a FIFO queue (level-ish order).

    Groups whole levels together: better for wide fan-out stages where the
    per-stage tasks should share blocks, worse for chain bundles. Offered
    as the alternative seed of the ``"best"`` strategy.
    """
    indeg = {u: g.in_degree(u) for u in g.nodes()}
    queue = [u for u in g.nodes() if indeg[u] == 0]
    head = 0
    order: List[Node] = []
    while head < len(queue):
        u = queue[head]
        head += 1
        order.append(u)
        for v in g.succ[u]:
            if not _decrement(indeg, v):
                queue.append(v)
    if len(order) != len(g):
        raise ValueError("graph contains a cycle")
    return order


#: order generators available to the initial partitioner
ORDER_STRATEGIES = {
    "dfs": dfs_topological_order,
    "bfs": bfs_topological_order,
}


def topological_order(g: CGraph, strategy: str) -> List[Node]:
    """The ``strategy`` order of ``g`` (see :data:`ORDER_STRATEGIES`)."""
    try:
        order_fn = ORDER_STRATEGIES[strategy]
    except KeyError:
        raise ValueError(f"unknown order strategy {strategy!r}; "
                         f"valid: {sorted(ORDER_STRATEGIES)}") from None
    return order_fn(g)


def initial_partition(g: CGraph, k: int, strategy: str = "dfs",
                      order: Optional[List[Node]] = None) -> Dict[Node, int]:
    """Cut a DFS topological order into ``k`` weight-balanced chunks.

    Greedy prefix cutting against the ideal cumulative boundary; blocks are
    never empty, and fewer than ``k`` blocks are produced when the graph
    has fewer than ``k`` nodes (mirroring dagP's behaviour on tiny DAGs).
    Returns a dense node -> block-index map with block indices respecting
    the topological order (needed by the refinement's adjacency rule).
    ``strategy`` picks the underlying topological order (``"dfs"`` keeps
    chains contiguous; ``"bfs"`` keeps levels contiguous); ``order``, when
    given, is that order already computed for ``g``.
    """
    if order is None:
        order = topological_order(g, strategy)
    n = len(order)
    k_eff = min(k, n)
    if k_eff <= 1:
        return {u: 0 for u in order}

    total = sum(g.weight[u] for u in order)
    target = total / k_eff
    part: Dict[Node, int] = {}
    block = 0
    acc = 0.0
    consumed = 0.0
    for i, u in enumerate(order):
        w = g.weight[u]
        remaining_nodes = n - i
        remaining_blocks = k_eff - block
        # must leave at least one node for each remaining block
        must_close = remaining_nodes == remaining_blocks and acc > 0.0
        # close when the running block reached its share (midpoint rule:
        # overshoot allowed if the node brings us closer to the boundary)
        boundary = consumed + target
        overshoots = acc > 0.0 and (consumed + acc + w / 2.0) > boundary
        if block < k_eff - 1 and (must_close or overshoots):
            consumed += acc
            acc = 0.0
            block += 1
        part[u] = block
        acc += w
    return part
