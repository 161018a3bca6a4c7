"""Step 4 of DagHetPart: local search (Algorithm 5).

Two mechanisms, both monotone in makespan:

* **swaps** — exchange the processors of two quotient vertices when both
  fit memory-wise; the best improving swap is applied, repeatedly, until
  none exists (steepest descent);
* **idle moves** — when processors remain idle (small workflows, few
  blocks), move critical-path vertices to faster idle processors that can
  hold them, recomputing the critical path after each move.

Both accept an optional :class:`~repro.core.evaluator.MakespanEvaluator`;
with one, each candidate mutation is priced by delta evaluation
(O(affected ancestors)) instead of a full bottom-weight pass over the
quotient. Without one, the original full-recompute path is used — the two
are bit-for-bit equivalent (see ``benchmarks/test_evaluator_delta.py``).

Critical-path prune
-------------------
Most swap candidates cannot beat the best makespan found so far, and the
swap search proves it without pricing them. Each round takes the current
critical path ``P`` and its *chain* length: ``P``'s bottom weight
recomputed from ``P`` alone, sink first, with the evaluator's float
operations (``own = work / speed``, ``cand = c / link + chain_next``,
``chain = own + cand``, ``own + 0.0`` at the sink). A swap leaves the
structure unchanged, and the swapped bottom weight of every ``P[i]`` is
``own' + best_child'`` with ``best_child' >= cand'`` (a running max).
IEEE division and addition round monotonically, so by induction from the
sink the swapped makespan is ``>= l'(P[0]) >= chain'(P)``: a pair whose
swapped chain (just ``chain(P)`` when neither block is on ``P``) is
``>= best_mu - 1e-12`` can never pass the acceptance test and is skipped.
The argument needs no sign assumption, a NaN chain never skips, and the
order, the first-seen tie-break and the applied swaps are unchanged; the
differential tests in ``tests/test_core_swaps.py`` hold the search to an
unpruned steepest descent.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.evaluator import MakespanEvaluator
from repro.core.makespan import critical_path, link_rule, makespan
from repro.core.quotient import BlockId, QuotientGraph
from repro.memdag.requirement import RequirementCache
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor

Node = Hashable


def improve_by_swaps(q: QuotientGraph, cluster: Cluster,
                     cache: RequirementCache, max_rounds: int = 1000,
                     evaluator: Optional[MakespanEvaluator] = None) -> int:
    """Steepest-descent processor swaps; returns the number applied.

    A swap of vertices ``(nu, nu')`` is feasible when each block fits the
    other's processor memory. Each round evaluates all feasible pairs and
    applies the single best strictly-improving one (Algorithm 5 keeps the
    best pair and stops when no improving swap exists); pairs the
    critical-path bound rules out are skipped unpriced, which never
    changes the outcome (module docstring).
    """
    applied = 0
    requirement: Dict[BlockId, float] = {}
    ev = evaluator
    current = ev.makespan() if ev is not None else makespan(q, cluster)
    link_of = link_rule(cluster)
    default_speed = ev.default_speed if ev is not None else 1.0
    for _ in range(max_rounds):
        ids = [bid for bid, blk in q.blocks.items() if blk.proc is not None]
        for bid in ids:
            # filled lazily each round: merges elsewhere may have replaced
            # block ids since the previous round (or a previous call)
            if bid not in requirement:
                requirement[bid] = cache.peak(q.blocks[bid].tasks)
        best_mu = current
        best_pair: Optional[Tuple[BlockId, BlockId]] = None
        path = ev.critical_path() if ev is not None else critical_path(q, cluster)
        chain = _PathChain(q, path, link_of, default_speed)
        for a, b in _feasible_pairs(ids, requirement, q.blocks):
            if chain.swapped(a, b) >= best_mu - 1e-12:
                continue  # cannot pass the acceptance test below
            if ev is not None:
                mu = ev.eval_swap(a, b)
            else:
                pa, pb = q.blocks[a].proc, q.blocks[b].proc
                q.set_proc(a, pb)
                q.set_proc(b, pa)
                mu = makespan(q, cluster)
                q.set_proc(a, pa)
                q.set_proc(b, pb)
            if mu < best_mu - 1e-12:
                best_mu = mu
                best_pair = (a, b)
        if best_pair is None:
            break
        a, b = best_pair
        if ev is not None:
            ev.apply_swap(a, b)
        else:
            pa, pb = q.blocks[a].proc, q.blocks[b].proc
            q.set_proc(a, pb)
            q.set_proc(b, pa)
        current = best_mu
        applied += 1
    return applied


def _feasible_pairs(ids: List[BlockId], requirement: Dict[BlockId, float],
                    blocks) -> List[Tuple[BlockId, BlockId]]:
    """Swap candidates ``(a, b)`` in nested ``i < j`` order.

    A pair is feasible when the two blocks sit on different processor
    objects and each fits the other's memory. The order matters: ties in
    makespan go to the first-seen pair.
    """
    pairs: List[Tuple[BlockId, BlockId]] = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            pa, pb = blocks[a].proc, blocks[b].proc
            if pa is pb:
                continue
            if requirement[a] > pb.memory or requirement[b] > pa.memory:
                continue
            pairs.append((a, b))
    return pairs


class _PathChain:
    """A lower bound on the makespan after a swap: one path's chain.

    ``suffix[i]`` is the chain of ``path[i:]`` under the current
    processors, computed sink first with the evaluator's float operations;
    the module docstring shows why the chain with two processors exchanged
    bounds the makespan after that swap from below.
    """

    __slots__ = ("blocks", "pos", "works", "costs", "procs", "suffix",
                 "link_of", "default_speed")

    def __init__(self, q: QuotientGraph, path: List[BlockId], link_of,
                 default_speed: float):
        self.blocks = q.blocks
        self.pos = {bid: i for i, bid in enumerate(path)}
        self.works = [q.blocks[bid].work for bid in path]
        self.costs = [q.succ[u][v] for u, v in zip(path, path[1:])]
        self.procs = [q.blocks[bid].proc for bid in path]
        self.link_of = link_of
        self.default_speed = default_speed
        self.suffix = [0.0] * len(path)
        self._chain(self.procs, len(path) - 1, self.suffix)

    def swapped(self, a: BlockId, b: BlockId) -> float:
        """The path's chain with the processors of ``a`` and ``b`` exchanged."""
        ia, ib = self.pos.get(a, -1), self.pos.get(b, -1)
        if ia < 0 and ib < 0:
            return self.suffix[0]  # the path's processors are unchanged
        procs = list(self.procs)
        if ia >= 0:
            procs[ia] = self.blocks[b].proc
        if ib >= 0:
            procs[ib] = self.blocks[a].proc
        # below the deeper swapped vertex the chain is unchanged
        return self._chain(procs, max(ia, ib))

    def _chain(self, procs: List[Optional[Processor]], top: int,
               out: Optional[List[float]] = None) -> float:
        """Chain of ``path[0]`` recomputed from ``path[top]`` up."""
        works, costs, link_of = self.works, self.costs, self.link_of
        last = len(works) - 1
        chain = self.suffix[top + 1] if top < last else 0.0
        for i in range(top, -1, -1):
            p = procs[i]
            own = works[i] / (p.speed if p is not None else self.default_speed)
            if i == last:
                chain = own + 0.0
            else:
                chain = own + (costs[i] / link_of(p, procs[i + 1]) + chain)
            if out is not None:
                out[i] = chain
        return chain


def move_critical_to_idle(q: QuotientGraph, cluster: Cluster,
                          cache: RequirementCache,
                          evaluator: Optional[MakespanEvaluator] = None) -> int:
    """Move critical-path vertices to faster idle processors; returns #moves.

    Activated only when some processors are idle after swapping. Each
    critical-path vertex is moved at most once ("as long as there are
    tasks in the critical path that have not been moved"); moves must
    strictly improve the makespan. The idle pool is recomputed from
    :meth:`QuotientGraph.used_processors` before each pass, so a processor
    vacated by a move rejoins it exactly when no block uses it any more.
    """
    ev = evaluator
    moved: Set[BlockId] = set()
    moves = 0
    current: Optional[float] = None
    while True:
        used = q.used_processors()
        idle: List[Processor] = [p for p in cluster.by_speed_desc()
                                 if p.name not in used]
        if not idle:
            return moves
        if current is None:
            current = ev.makespan() if ev is not None else makespan(q, cluster)
        path = ev.critical_path() if ev is not None else critical_path(q, cluster)
        progressed = False
        for nu in path:
            if nu in moved or nu not in q.blocks:
                continue
            blk = q.blocks[nu]
            if blk.proc is None:
                continue
            req = cache.peak(blk.tasks)
            for candidate in idle:
                if candidate.speed <= blk.proc.speed or req > candidate.memory:
                    continue
                old = blk.proc
                if ev is not None:
                    mu = ev.eval_move(nu, candidate)
                else:
                    q.set_proc(nu, candidate)
                    mu = makespan(q, cluster)
                    q.set_proc(nu, old)
                if mu < current - 1e-12:
                    if ev is not None:
                        ev.apply_move(nu, candidate)
                    else:
                        q.set_proc(nu, candidate)
                    current = mu
                    moved.add(nu)
                    moves += 1
                    progressed = True
                    break
            if progressed:
                break  # critical path changed; recompute
        if not progressed:
            return moves
