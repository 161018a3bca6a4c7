"""Acyclicity-safe coarsening.

Contracting a DAG edge ``(u, v)`` keeps the contracted graph acyclic iff
the direct edge is the **only** path from ``u`` to ``v``. Two cheap local
conditions each imply this globally:

* ``v`` has ``u`` as its only parent — any other ``u -> v`` path would
  enter ``v`` through a second parent;
* ``u`` has ``v`` as its only child — any other path would leave ``u``
  through a second child.

These rules contract chains and fan trees, which is exactly the structure
workflow DAGs are made of, so coarsening converges quickly in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from repro.partition.contraction import CGraph

Node = Hashable


def safe_to_contract(g: CGraph, u: Node, v: Node) -> bool:
    """Local sufficient condition for acyclicity-safe contraction of (u, v)."""
    return g.in_degree(v) == 1 or g.out_degree(u) == 1


@dataclass
class CoarseningLevel:
    """One level of the multilevel hierarchy.

    ``assignment`` maps each node of the finer graph to its cluster id in
    the coarser graph; used to project partitions back during uncoarsening.
    """

    graph: CGraph
    assignment: Dict[Node, Node]


def coarsen_pass(g: CGraph, max_cluster_weight: float) -> Tuple[CGraph, Dict[Node, Node], int]:
    """One agglomerative clustering pass.

    Nodes are visited in topological order; each still-unabsorbed node
    greedily absorbs safe neighbours (heaviest connecting edge first, the
    dagP heuristic) while staying under ``max_cluster_weight``. Allowing a
    cluster to absorb several neighbours — rather than classical 1:1
    matching — is essential on star-shaped workflow graphs (BLAST,
    Seismology), where a matching pass can only remove O(1) nodes.
    Returns the coarser graph, the fine-to-coarse assignment and the
    number of contractions performed.
    """
    # Work on a fresh copy so levels stay immutable for projection.
    coarse = CGraph()
    coarse.weight = dict(g.weight)
    coarse.succ = {u: dict(nbrs) for u, nbrs in g.succ.items()}
    coarse.pred = {u: dict(nbrs) for u, nbrs in g.pred.items()}
    coarse.members = {u: [u] for u in g.weight}

    absorbed = set()
    contractions = 0
    for u in g.topological_order():
        if u in absorbed or u not in coarse.weight:
            continue
        while True:
            candidates: List[Tuple[float, int, Node, bool]] = []
            for idx, (v, c) in enumerate(coarse.succ[u].items()):
                if v in absorbed:
                    continue
                if coarse.weight[u] + coarse.weight[v] > max_cluster_weight:
                    continue
                if safe_to_contract(coarse, u, v):
                    candidates.append((c, -idx, v, True))
            for idx, (p, c) in enumerate(coarse.pred[u].items()):
                if p in absorbed:
                    continue
                if coarse.weight[u] + coarse.weight[p] > max_cluster_weight:
                    continue
                if safe_to_contract(coarse, p, u):
                    candidates.append((c, -idx, p, False))
            if not candidates:
                break
            _, _, other, is_child = max(candidates)
            if is_child:
                coarse.contract(u, other)
            else:
                # absorb the parent; contract() keeps the parent's id, so
                # rename the merged cluster back to u (the absorber must
                # keep its identity across loop iterations)
                coarse.contract(other, u)
                _swap_node_identity(coarse, other, u)
            absorbed.add(other)
            contractions += 1

    assignment: Dict[Node, Node] = {}
    for cluster, mem in coarse.members.items():
        for fine_node in mem:
            assignment[fine_node] = cluster
    return coarse, assignment, contractions


def _swap_node_identity(g: CGraph, old: Node, new: Node) -> None:
    """Rename node ``old`` to ``new`` (which must not currently exist)."""
    g.weight[new] = g.weight.pop(old)
    g.succ[new] = g.succ.pop(old)
    g.pred[new] = g.pred.pop(old)
    g.members[new] = g.members.pop(old)
    for x in g.succ[new]:
        g.pred[x][new] = g.pred[x].pop(old)
    for x in g.pred[new]:
        g.succ[x][new] = g.succ[x].pop(old)


def default_balance_cap(g: CGraph, target_size: int) -> float:
    """Default cluster weight cap of a coarsening towards ``target_size``
    nodes: one ideal block (total weight / ``target_size``), or the
    heaviest node if larger."""
    return max(g.total_weight() / max(target_size, 1),
               max(g.weight.values(), default=1.0))


class CoarseningHierarchy:
    """The coarsening levels of one graph under one cluster weight cap,
    built lazily and shared by every target size.

    A pass depends only on its input graph and the cap, never on the
    target: the target only decides where coarsening stops (the first
    level with at most ``target_size`` nodes). So the hierarchy for
    a larger target is a prefix of the one for a smaller target, and one
    hierarchy per cap serves them all. Levels are extended on demand and
    never mutated once built.
    """

    __slots__ = ("graph", "cap", "max_levels", "_levels", "_stalled")

    def __init__(self, g: CGraph, cap: float, max_levels: int = 30) -> None:
        self.graph = g
        self.cap = cap
        self.max_levels = max_levels
        self._levels: List[CoarseningLevel] = []
        #: a pass stagnated, so no deeper level exists
        self._stalled = False

    def levels_for(self, target_size: int) -> List[CoarseningLevel]:
        """The hierarchy for ``target_size``, bottom-up.

        Passes repeat until a level has at most ``target_size`` nodes, a
        pass stagnates, or ``max_levels`` is reached. ``levels[0]``
        coarsens the input graph; ``levels[-1].graph`` is the coarsest.
        """
        levels = self._levels
        depth = 0
        current = self.graph
        while len(current) > target_size:
            if depth == len(levels):
                if self._stalled or depth >= self.max_levels:
                    break
                coarse, assignment, contractions = coarsen_pass(current, self.cap)
                if contractions == 0 or len(coarse) >= len(current) * 0.98:
                    self._stalled = True
                    break
                levels.append(CoarseningLevel(graph=coarse, assignment=assignment))
            current = levels[depth].graph
            depth += 1
        return levels[:depth]
