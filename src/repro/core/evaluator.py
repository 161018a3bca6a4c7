"""Incremental makespan engine for the merge/swap searches.

Steps 3 and 4 of DagHetPart evaluate thousands of *candidate* mutations —
tentative merges, processor reassignments, pairwise swaps — and the seed
implementation paid a full :func:`repro.core.makespan.bottom_weights`
pass (topological sort + weight sweep over the whole quotient) for every
single one. :class:`MakespanEvaluator` replaces that with delta
evaluation built on one observation: the bottom weight of a vertex
depends only on its *descendants*, so any mutation can only change the
weights of the mutated vertices and their ancestors.

Complexity contract
-------------------
Let ``A`` be the mutated vertices plus all their ancestors in the current
quotient. One :meth:`makespan` call after a batch of mutations costs

    O(|A| + edges incident to A)

— closure walk, a local Kahn order restricted to ``A``, and one weight
recomputation per member — instead of ``O(|V| + |E|)`` for the full
pass. The maximum is maintained incrementally; it degrades to one
``O(|V|)`` scan of cached floats only when the previous argmax itself was
touched. Results are bit-for-bit identical to the full recompute: every
vertex weight is produced by the same arithmetic over the same adjacency
iteration order as :func:`repro.core.makespan.bottom_weights`.
:meth:`MakespanEvaluator.eval_merge` prices a merge of two vertices
without performing it, at the same cost, by recomputing the merged vertex
and its ancestors in an overlay that is then discarded.

Change tracking
---------------
The evaluator subscribes to the quotient's op log
(:meth:`QuotientGraph.enable_oplog`): ``merge`` / ``unmerge`` /
``set_proc`` — and the incremental growth ops the dynamic simulator
uses for warm-start repair (``add_block`` / ``add_quotient_edge`` /
``set_work``) — record themselves, and the evaluator folds the pending
ops into its caches lazily on the next query. Mutations therefore commit or
roll back for free — undoing a tentative change just appends the inverse
op, and the sync touches the (identical) affected set once. If the log
overflows, or the quotient was rebuilt wholesale, the evaluator falls
back to one full pass (counted in :attr:`full_recomputes`).

The log is single-consumer: create at most one evaluator per
:class:`QuotientGraph` at a time, and route processor changes through
:meth:`QuotientGraph.set_proc` (direct ``blk.proc`` assignment is
invisible to the log; call :meth:`invalidate` if you must do that).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.makespan import bottom_weights, follow_critical_path, link_rule
from repro.core.quotient import BlockId, QuotientGraph
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.utils.errors import CyclicWorkflowError


class MakespanEvaluator:
    """Cached bottom weights over a quotient with O(ancestors) updates.

    Instrumentation counters (reset manually if needed):

    * ``full_recomputes`` — full bottom-weight passes (init, overflow,
      wholesale rebuilds, explicit invalidation);
    * ``delta_syncs``     — incremental batches folded in;
    * ``vertices_recomputed`` — total vertices re-evaluated by deltas.
    """

    def __init__(self, q: QuotientGraph, cluster: Cluster,
                 default_speed: float = 1.0):
        self.q = q
        self.cluster = cluster
        self.default_speed = default_speed
        self._link_of = link_rule(cluster)
        self._l: Dict[BlockId, float] = {}
        self._max = 0.0
        self._argmax: Optional[BlockId] = None
        self._version = -1
        self._dirty = True
        self.full_recomputes = 0
        self.delta_syncs = 0
        self.vertices_recomputed = 0
        q.enable_oplog()
        self._rebuild()

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def makespan(self) -> float:
        """``max_nu l_nu`` of the quotient's current state (Eq. (2))."""
        self._sync()
        return self._max if self._l else 0.0

    def bottom_weights(self) -> Dict[BlockId, float]:
        """A copy of the current per-vertex bottom weights."""
        self._sync()
        return dict(self._l)

    def critical_path(self) -> List[BlockId]:
        """The makespan-realizing path, identical to the module function."""
        self._sync()
        if not self._l:
            return []
        return follow_critical_path(self.q, self.cluster, self._l, self._argmax)

    def invalidate(self) -> None:
        """Force a full recompute on the next query.

        Needed only after mutations the op log cannot see (direct
        ``blk.proc`` assignment, manual adjacency edits). Also bumps the
        quotient version via :meth:`QuotientGraph.touch`.
        """
        self._dirty = True
        self.q.touch()

    # ------------------------------------------------------------------
    # convenience: tentative / committed single mutations
    # ------------------------------------------------------------------
    def eval_move(self, bid: BlockId, proc: Optional[Processor]) -> float:
        """Makespan with ``bid`` reassigned to ``proc``; graph left unchanged."""
        q = self.q
        old = q.blocks[bid].proc
        q.set_proc(bid, proc)
        try:
            return self.makespan()
        finally:
            q.set_proc(bid, old)

    def eval_swap(self, a: BlockId, b: BlockId) -> float:
        """Makespan with the processors of ``a``/``b`` exchanged; then undone."""
        q = self.q
        pa, pb = q.blocks[a].proc, q.blocks[b].proc
        q.set_proc(a, pb)
        q.set_proc(b, pa)
        try:
            return self.makespan()
        finally:
            q.set_proc(a, pa)
            q.set_proc(b, pb)

    def eval_merge(self, a: BlockId, b: BlockId,
                   proc: Optional[Processor]) -> float:
        """Makespan with ``a`` and ``b`` merged onto ``proc``; graph untouched.

        Bit-equal to ``q.merge(a, b)``, ``set_proc`` of the merged vertex
        and :meth:`makespan`. The merged vertex's work and edge costs are
        summed as :meth:`QuotientGraph.merge` sums them (two addends, so
        their order cannot matter); its weight and then its ancestors'
        weights are recomputed with :meth:`_sync`'s float operations in an
        overlay over the synced table, and the result is the maximum of
        the overlay and of the untouched vertices. The merge must close no
        cycle: no child of ``a`` or ``b`` other than the two may reach
        either of them.
        """
        self._sync()
        q = self.q
        blocks, succ, pred = q.blocks, q.succ, q.pred
        l = self._l
        link_of = self._link_of
        default_speed = self.default_speed

        merged_succ: Dict[BlockId, float] = {}
        for old, other in ((a, b), (b, a)):
            for x, c in succ[old].items():
                if x != other:
                    merged_succ[x] = merged_succ.get(x, 0.0) + c
        best_child = 0.0
        for child, c in merged_succ.items():
            cand = c / link_of(proc, blocks[child].proc) + l[child]
            if cand > best_child:
                best_child = cand
        work = blocks[a].work + blocks[b].work
        top = work / (proc.speed if proc is not None
                      else default_speed) + best_child

        # ancestors of a or b, children first (local Kahn); none of them
        # is a or b, since the merge closes no cycle
        region = set()
        stack = [p for p in pred[a] if p != b] + [p for p in pred[b] if p != a]
        while stack:
            v = stack.pop()
            if v not in region:
                region.add(v)
                stack.extend(pred[v])
        indeg: Dict[BlockId, int] = {}
        for v in region:
            d = 0
            for c in succ[v]:
                if c in region:
                    d += 1
            indeg[v] = d
        ready = [v for v, d in indeg.items() if d == 0]
        overlay: Dict[BlockId, float] = {}
        head = 0
        while head < len(ready):
            v = ready[head]
            head += 1
            blk = blocks[v]
            own = blk.work / (blk.proc.speed if blk.proc is not None
                              else default_speed)
            best_child = 0.0
            to_merged = None
            for child, c in succ[v].items():
                if child == a or child == b:
                    to_merged = (0.0 if to_merged is None else to_merged) + c
                    continue
                lc = overlay[child] if child in overlay else l[child]
                cand = c / link_of(blk.proc, blocks[child].proc) + lc
                if cand > best_child:
                    best_child = cand
            if to_merged is not None:
                cand = to_merged / link_of(blk.proc, proc) + top
                if cand > best_child:
                    best_child = cand
            overlay[v] = own + best_child
            for p in pred[v]:
                if p in indeg:
                    indeg[p] -= 1
                    if indeg[p] == 0:
                        ready.append(p)

        best = top
        for lv in overlay.values():
            if lv > best:
                best = lv
        argmax = self._argmax
        if argmax != a and argmax != b and argmax not in overlay:
            # the cached maximum sits on an untouched vertex
            if self._max > best:
                best = self._max
        else:
            for v, lv in l.items():
                if lv > best and v != a and v != b and v not in overlay:
                    best = lv
        return best

    def apply_move(self, bid: BlockId, proc: Optional[Processor]) -> float:
        """Commit a reassignment; returns the new makespan."""
        self.q.set_proc(bid, proc)
        return self.makespan()

    def apply_swap(self, a: BlockId, b: BlockId) -> float:
        """Commit a pairwise swap; returns the new makespan."""
        q = self.q
        pa, pb = q.blocks[a].proc, q.blocks[b].proc
        q.set_proc(a, pb)
        q.set_proc(b, pa)
        return self.makespan()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _rebuild(self) -> None:
        self.q.drain_oplog()
        self._l = bottom_weights(self.q, self.cluster, self.default_speed)
        self._rescan_max()
        self._version = self.q.version
        self._dirty = False
        self.full_recomputes += 1

    def _rescan_max(self) -> None:
        l = self._l
        if not l:
            self._max, self._argmax = 0.0, None
            return
        self._argmax = max(l, key=lambda bid: (l[bid], -bid))
        self._max = l[self._argmax]

    def _sync(self) -> None:
        q = self.q
        if not self._dirty and q.version == self._version:
            return
        ops, overflow = q.drain_oplog()
        if self._dirty or overflow:
            self._rebuild()
            return

        mentioned = set()
        for op in ops:
            kind = op[0]
            if kind == "proc" and op[1] is not None:
                mentioned.add(op[1])
            elif kind in ("merge", "unmerge"):
                mentioned.update(op[1:])
            elif kind in ("add", "work"):
                # a new vertex, or one whose work changed: its own weight
                # (and its ancestors') must be recomputed; descendants
                # keep their cached weights
                mentioned.add(op[1])
            elif kind == "edge":
                # a new edge a -> b reprices the tail only — bottom
                # weights depend on descendants, and b's are unchanged
                mentioned.add(op[1])
            else:
                # "rebuild" (structure changed wholesale) or
                # ("proc", None) — touch() after direct blk.proc writes,
                # where the affected set is unknown
                self._rebuild()
                return
        if len(ops) > max(64, 8 * len(q.blocks)):
            # a batch this large can't beat one full pass
            self._rebuild()
            return

        l = self._l
        seeds = set()
        for bid in mentioned:
            if bid in q.blocks:
                seeds.add(bid)
            else:
                l.pop(bid, None)

        # upward closure: only mutated vertices and their ancestors can
        # have changed (bottom weights depend on descendants alone; this
        # also covers the in-edges a reassignment reprices under a
        # heterogeneous interconnect — their tails are direct parents)
        affected = set()
        stack = list(seeds)
        while stack:
            v = stack.pop()
            if v in affected:
                continue
            affected.add(v)
            stack.extend(q.pred[v])

        # children-first order over the affected region (local Kahn)
        indeg: Dict[BlockId, int] = {}
        for v in affected:
            d = 0
            for c in q.succ[v]:
                if c in affected:
                    d += 1
            indeg[v] = d
        ready = [v for v, d in indeg.items() if d == 0]
        link_of = self._link_of
        default_speed = self.default_speed
        blocks, succ, pred = q.blocks, q.succ, q.pred
        head = 0
        while head < len(ready):
            v = ready[head]
            head += 1
            blk = blocks[v]
            own = blk.work / (blk.proc.speed if blk.proc is not None
                              else default_speed)
            best_child = 0.0
            for child, c in succ[v].items():
                cand = c / link_of(blk.proc, blocks[child].proc) + l[child]
                if cand > best_child:
                    best_child = cand
            l[v] = own + best_child
            for p in pred[v]:
                if p in indeg:
                    indeg[p] -= 1
                    if indeg[p] == 0:
                        ready.append(p)
        if len(ready) != len(affected):
            # a cycle runs through the affected region; weights are
            # undefined until the caller unmerges it
            self._dirty = True
            raise CyclicWorkflowError(
                message="makespan undefined: quotient graph is cyclic")

        self.delta_syncs += 1
        self.vertices_recomputed += len(ready)
        argmax = self._argmax
        if argmax is None or argmax not in l or argmax in affected:
            self._rescan_max()
        else:
            best, best_id = self._max, argmax
            for v in affected:
                lv = l[v]
                if lv > best or (lv == best and v < best_id):
                    best, best_id = lv, v
            self._max, self._argmax = best, best_id
        self._version = q.version
