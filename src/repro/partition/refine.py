"""FM-style acyclicity-preserving refinement.

Blocks are indexed consistently with a topological order (the initial
partitioner guarantees this), so the quotient's edges always point from
lower to higher block index. A single-vertex move preserves this invariant
when restricted to *order-adjacent* blocks:

* ``u`` may move from block ``b`` to ``b+1`` iff every successor of ``u``
  lies in a block ``>= b+1`` (``u`` is a "sink" of its block);
* ``u`` may move from ``b`` to ``b-1`` iff every predecessor lies in a
  block ``<= b-1`` (``u`` is a "source" of its block).

Moves are applied steepest-first while they reduce the weighted edge cut
and keep every block within the balance tolerance.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.partition.contraction import CGraph

Node = Hashable


def edge_cut(g: CGraph, part: Dict[Node, int]) -> float:
    """Total weight of edges crossing between blocks."""
    return sum(
        c for u, nbrs in g.succ.items() for v, c in nbrs.items()
        if part[u] != part[v]
    )


def _move_gain(g: CGraph, part: Dict[Node, int], u: Node, dest: int) -> float:
    """Cut reduction if ``u`` moves to block ``dest`` (positive = better)."""
    src = part[u]
    gain = 0.0
    for v, c in g.succ[u].items():
        before = c if part[v] != src else 0.0
        after = c if part[v] != dest else 0.0
        gain += before - after
    for p, c in g.pred[u].items():
        before = c if part[p] != src else 0.0
        after = c if part[p] != dest else 0.0
        gain += before - after
    return gain


def _legal_up(g: CGraph, part: Dict[Node, int], u: Node) -> bool:
    b = part[u]
    return all(part[v] >= b + 1 for v in g.succ[u])


def _legal_down(g: CGraph, part: Dict[Node, int], u: Node) -> bool:
    b = part[u]
    return all(part[p] <= b - 1 for p in g.pred[u])


def refine(g: CGraph, part: Dict[Node, int], k: int, eps: float = 0.10,
           max_passes: int = 4) -> Dict[Node, int]:
    """Improve ``part`` in place (also returned) by adjacent boundary moves.

    ``eps`` is the balance tolerance: a move may not push the destination
    block above ``(1 + eps) * total / k`` nor empty the source block.

    Each pass collects every node's legal positive-gain moves, then
    applies them steepest first. A node's legality and gains depend only
    on its own block and its neighbours' blocks, so they are cached from
    its last scan and rescanned only when the node or a neighbour moved
    since (or it was never scanned). A node skipped because its block has
    one node keeps its stale mark until a later pass scans it.
    """
    if k <= 1 or len(g) <= 1:
        return part
    total = g.total_weight()
    cap = (1.0 + eps) * total / k
    block_weight: Dict[int, float] = {}
    block_size: Dict[int, int] = {}
    for u, b in part.items():
        block_weight[b] = block_weight.get(b, 0.0) + g.weight[u]
        block_size[b] = block_size.get(b, 0) + 1

    succ, pred = g.succ, g.pred
    # node -> (gain of its legal up move, of its legal down move), None
    # where the move is illegal or gains nothing
    gains: Dict[Node, Tuple[Optional[float], Optional[float]]] = {}
    stale: Set[Node] = set(g.weight)
    for _ in range(max_passes):
        moves: List[Tuple[float, int, Node, int]] = []
        for i, u in enumerate(g.nodes()):
            b = part[u]
            if block_size[b] <= 1:
                continue
            if u in stale:
                stale.discard(u)
                succ_u, pred_u = succ[u], pred[u]
                # _legal_up and _legal_down, inlined
                up_ok = True
                for v in succ_u:
                    if part[v] <= b:
                        up_ok = False
                        break
                down_ok = b > 0
                if down_ok:
                    for p in pred_u:
                        if part[p] >= b:
                            down_ok = False
                            break
                up_gain = down_gain = None
                if up_ok or down_ok:
                    # _move_gain to b + 1 and to b - 1, inlined: the same
                    # float operations in the same order
                    up = down = 0.0
                    for nbrs in (succ_u, pred_u):
                        for x, c in nbrs.items():
                            px = part[x]
                            before = c if px != b else 0.0
                            up += before - (c if px != b + 1 else 0.0)
                            down += before - (c if px != b - 1 else 0.0)
                    if up_ok and up > 0:
                        up_gain = up
                    if down_ok and down > 0:
                        down_gain = down
                gains[u] = (up_gain, down_gain)
            else:
                up_gain, down_gain = gains[u]
            if up_gain is not None and (b + 1 in block_weight or b + 1 < k):
                moves.append((up_gain, -i, u, b + 1))
            if down_gain is not None:
                moves.append((down_gain, -i, u, b - 1))
        if not moves:
            break
        moves.sort(reverse=True)
        applied = 0
        for gain, _, u, dest in moves:
            b = part[u]
            if abs(dest - b) != 1 or block_size.get(b, 0) <= 1:
                continue
            if dest > b and not _legal_up(g, part, u):
                continue
            if dest < b and not _legal_down(g, part, u):
                continue
            if _move_gain(g, part, u, dest) <= 0:
                continue
            if block_weight.get(dest, 0.0) + g.weight[u] > cap:
                continue
            part[u] = dest
            block_weight[b] -= g.weight[u]
            block_size[b] -= 1
            block_weight[dest] = block_weight.get(dest, 0.0) + g.weight[u]
            block_size[dest] = block_size.get(dest, 0) + 1
            stale.add(u)
            stale.update(succ[u])
            stale.update(pred[u])
            applied += 1
        if applied == 0:
            break
    return part
