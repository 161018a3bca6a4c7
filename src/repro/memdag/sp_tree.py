"""Recognition and decomposition of two-terminal series-parallel DAGs.

A DAG with a single source ``s`` and single sink ``t`` is two-terminal
series-parallel (TTSP) iff it can be reduced to the single edge ``(s, t)``
by repeatedly applying

* **series reduction** — replace a vertex ``w`` with in-degree 1 and
  out-degree 1 by fusing its two incident edges, and
* **parallel reduction** — fuse two parallel edges between the same pair.

(Valdes, Tarjan, Lawler 1982.) The reductions are recorded to build an
SP-tree whose leaves are original edges; the traversal optimizer walks this
tree, concatenating series children and optimally interleaving parallel
children (:mod:`repro.memdag.traversal`).

:func:`sp_reduce` works on integer-labelled vertices and builds light
tuple nodes.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

#: the light nodes :func:`sp_reduce` builds: ``EDGE`` (a leaf),
#: ``(SERIES, left, w, right)`` and ``(PARALLEL, first, second)``
EDGE: Tuple = ()
SERIES = 0
PARALLEL = 1

LightTree = Tuple


def sp_reduce(n: int, tails: Sequence[int], heads: Sequence[int],
              source: int, sink: int) -> Optional[LightTree]:
    """Light SP-tree of the two-terminal DAG on vertices ``0..n-1``.

    Edge ``e`` runs from ``tails[e]`` to ``heads[e]``. Returns ``None``
    when the DAG is not TTSP. A light tree is ``EDGE`` for an edge,
    ``(SERIES, left, w, right)`` for ``left`` then vertex ``w`` then
    ``right``, and ``(PARALLEL, first, second)`` for two parallel
    branches; nested nodes of one kind stand for one flattened node
    (:func:`parallel_branches`).

    Each reduction removes an edge, so there are fewer reductions than
    edges. Series candidates are kept on a stack seeded in order of the
    vertices' first appearance in the edge list, parallel candidates on a
    stack of vertex pairs; the parallel pairs are drained first, then the
    series vertices, until neither stack has work. A pair's parallel
    edges are fused two oldest first into a new, newest edge, until one
    is left.
    """
    m = len(tails)
    if m == 0:
        return None
    tails = list(tails)
    heads = list(heads)
    trees: List[LightTree] = [EDGE] * m
    # per vertex: its in/out degree and its newest in/out edge. Removing
    # an edge of a vertex that stays always adds a newer one (the fused
    # or bypassing edge), so the newest edge is live, and it is the one
    # edge whenever the degree is 1.
    in_deg = [0] * n
    out_deg = [0] * n
    in_last = [0] * n
    out_last = [0] * n
    #: live parallel edges per pair ``u * n + v``, oldest first
    pairs: Dict[int, List[int]] = {}
    for e, (u, v) in enumerate(zip(tails, heads)):
        if u == v:
            return None
        out_deg[u] += 1
        out_last[u] = e
        in_deg[v] += 1
        in_last[v] = e
        key = u * n + v
        ids = pairs.get(key)
        if ids is None:
            pairs[key] = [e]
        else:
            ids.append(e)

    series = [w for w in dict.fromkeys(chain.from_iterable(zip(tails, heads)))
              if in_deg[w] == 1 and out_deg[w] == 1 and w != source and w != sink]
    parallel = [key for key, ids in pairs.items() if len(ids) >= 2]
    alive = m
    while True:
        while parallel:
            key = parallel.pop()
            u, v = divmod(key, n)
            ids = pairs[key]
            k = len(ids)
            if k >= 2:
                branches = [trees[e] for e in ids]
                for i in range(0, 2 * k - 3, 2):
                    branches.append((PARALLEL, branches[i], branches[i + 1]))
                e = len(tails)
                out_deg[u] -= k - 1
                out_last[u] = e
                in_deg[v] -= k - 1
                in_last[v] = e
                tails.append(u)
                heads.append(v)
                trees.append(branches[-1])
                pairs[key] = [e]
                alive -= k - 1
            for w in (u, v):
                if in_deg[w] == 1 and out_deg[w] == 1 and w != source and w != sink:
                    series.append(w)
        while series:
            w = series.pop()
            if in_deg[w] != 1 or out_deg[w] != 1:
                continue  # reduced already, or no longer reducible
            e_in = in_last[w]
            e_out = out_last[w]
            u = tails[e_in]
            x = heads[e_out]
            if u == x:
                return None  # the reduction would close a cycle
            in_deg[w] = out_deg[w] = 0
            del pairs[u * n + w], pairs[w * n + x]
            e = len(tails)
            out_last[u] = e
            in_last[x] = e
            tails.append(u)
            heads.append(x)
            trees.append((SERIES, trees[e_in], w, trees[e_out]))
            alive -= 1
            key = u * n + x
            ids = pairs.get(key)
            if ids is None:
                pairs[key] = [e]
            else:
                ids.append(e)
                parallel.append(key)
            if in_deg[u] == 1 and out_deg[u] == 1 and u != source and u != sink:
                series.append(u)
            if in_deg[x] == 1 and out_deg[x] == 1 and x != source and x != sink:
                series.append(x)
        if not parallel:
            break

    # every reduction ends by adding an edge, so the newest one is alive
    e = len(tails) - 1
    if alive == 1 and tails[e] == source and heads[e] == sink:
        return trees[e]
    return None


def parallel_branches(tree: LightTree) -> List[LightTree]:
    """The branches of a parallel node, nested parallel nodes flattened."""
    branches: List[LightTree] = []
    pending = [tree]
    while pending:
        node = pending.pop()
        if node and node[0] == PARALLEL:
            pending.append(node[2])
            pending.append(node[1])
        else:
            branches.append(node)
    return branches
