"""The quotient graph ``Gamma = (V, E)`` induced by a partition (Sec. 3.3).

Each quotient vertex is a block of workflow tasks; its weight is the sum of
task works, and the weight of a quotient edge is the sum of all workflow
edge costs between the two blocks. Step 3 of DagHetPart performs many
*tentative* merges, so :meth:`QuotientGraph.merge` returns an undo token
and :meth:`QuotientGraph.unmerge` restores the previous blocks, weights
and edges exactly (the dict order of the two restored vertices is the one
thing that changes; see :meth:`QuotientGraph.unmerge`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.platform.processor import Processor
from repro.utils.errors import InvalidPartitionError
from repro.workflow.graph import Workflow

Node = Hashable
BlockId = int


@dataclass
class QBlock:
    """One vertex of the quotient graph: a block of tasks and its mapping."""

    tasks: Set[Node]
    work: float
    proc: Optional[Processor] = None


class _UndoToken:
    """Everything needed to reverse one merge operation."""

    __slots__ = ("new_id", "old_a", "old_b", "block_a", "block_b",
                 "succ_a", "pred_a", "succ_b", "pred_b")

    def __init__(self, new_id, old_a, old_b, block_a, block_b,
                 succ_a, pred_a, succ_b, pred_b):
        self.new_id = new_id
        self.old_a = old_a
        self.old_b = old_b
        self.block_a = block_a
        self.block_b = block_b
        self.succ_a = succ_a
        self.pred_a = pred_a
        self.succ_b = succ_b
        self.pred_b = pred_b


class QuotientGraph:
    """Mutable quotient DAG with merge/unmerge support.

    Invariants maintained: vertex weights are the sums of member task
    works; edge weights are sums of crossing workflow edge costs;
    ``blocks`` and adjacency always agree. Acyclicity is *checked*, not
    enforced — Step 3 relies on detecting the cycles a merge creates.
    """

    #: op-log capacity; a consumer that falls further behind than this is
    #: told to rebuild from scratch instead (overflow flag)
    OPLOG_CAP = 4096

    def __init__(self, wf: Workflow):
        self.wf = wf
        self.blocks: Dict[BlockId, QBlock] = {}
        self.succ: Dict[BlockId, Dict[BlockId, float]] = {}
        self.pred: Dict[BlockId, Dict[BlockId, float]] = {}
        self._ids = itertools.count()
        self._task_block: Dict[Node, BlockId] = {}
        #: bumped on every structural or mapping mutation (dirty marker
        #: for incremental consumers such as the makespan evaluator)
        self.version = 0
        self._oplog: Optional[List[Tuple]] = None
        self._oplog_overflow = False

    # ------------------------------------------------------------------
    # change tracking (consumed by repro.core.evaluator)
    # ------------------------------------------------------------------
    def enable_oplog(self) -> None:
        """Start recording mutations for one incremental consumer.

        The log is single-consumer: whoever calls :meth:`drain_oplog`
        owns it. Re-enabling clears any pending entries.
        """
        self._oplog = []
        self._oplog_overflow = False

    def drain_oplog(self) -> Tuple[List[Tuple], bool]:
        """Return ``(ops, overflowed)`` since the last drain and clear.

        ``overflowed`` is True when more than :data:`OPLOG_CAP` mutations
        accumulated — the consumer must do a full rebuild in that case.
        """
        if self._oplog is None:
            return [], True
        ops, overflow = self._oplog, self._oplog_overflow
        self._oplog = []
        self._oplog_overflow = False
        return ops, overflow

    def _log(self, op: Tuple) -> None:
        self.version += 1
        log = self._oplog
        if log is None:
            return
        if len(log) >= self.OPLOG_CAP:
            self._oplog_overflow = True
            log.clear()
            return
        log.append(op)

    def set_proc(self, bid: BlockId, proc: Optional[Processor]) -> None:
        """Assign (or clear) the processor of ``bid``, with change tracking.

        Equivalent to ``q.blocks[bid].proc = proc`` except incremental
        consumers are notified; all core call sites use this method.
        """
        self.blocks[bid].proc = proc
        self._log(("proc", bid))

    def touch(self) -> None:
        """Record an out-of-band mapping change.

        Call this after writing ``blk.proc`` directly instead of through
        :meth:`set_proc` — it bumps the version so incremental consumers
        (the evaluator's caches) know to refresh.
        """
        self._log(("proc", None))

    # ------------------------------------------------------------------
    @classmethod
    def from_partition(cls, wf: Workflow, partition: Sequence[Iterable[Node]],
                       procs: Optional[Sequence[Optional[Processor]]] = None) -> "QuotientGraph":
        """Build the quotient of ``wf`` under ``partition``.

        ``procs``, if given, assigns processors positionally to the blocks.
        Raises :class:`InvalidPartitionError` if the partition is not a
        disjoint cover of the task set.
        """
        q = cls(wf)
        seen: Set[Node] = set()
        for i, tasks in enumerate(partition):
            task_set = set(tasks)
            if not task_set:
                raise InvalidPartitionError(f"block {i} is empty")
            if task_set & seen:
                raise InvalidPartitionError(f"block {i} overlaps another block")
            seen |= task_set
            proc = procs[i] if procs is not None else None
            q._add_block(task_set, proc)
        missing = set(wf.tasks()) - seen
        if missing:
            raise InvalidPartitionError(
                f"{len(missing)} task(s) not covered by the partition")
        q._rebuild_edges()
        return q

    def _add_block(self, tasks: Set[Node], proc: Optional[Processor] = None) -> BlockId:
        bid = next(self._ids)
        # sum in a stable order: set iteration follows string hashes,
        # which vary per process, and float addition is order-sensitive
        # in the last bit — block works must be cross-process exact for
        # the simulator's determinism contract
        work = sum(self.wf.work(u) for u in sorted(tasks, key=repr))
        self.blocks[bid] = QBlock(tasks=tasks, work=work, proc=proc)
        self.succ[bid] = {}
        self.pred[bid] = {}
        for u in tasks:
            self._task_block[u] = bid
        self._log(("add", bid))
        return bid

    # ------------------------------------------------------------------
    # incremental growth (the dynamic simulator's warm-start entry points)
    # ------------------------------------------------------------------
    def add_block(self, tasks: Iterable[Node],
                  proc: Optional[Processor] = None) -> BlockId:
        """Add one block *incrementally*, without an edge rebuild.

        The tasks must already exist in the workflow and must not be
        covered by another block. The new vertex starts with no quotient
        edges — connect it with :meth:`add_quotient_edge` (tasks arriving
        as an independent job need none). Incremental consumers see an
        ``("add", bid)`` op and fold the new vertex in without a full
        bottom-weight pass.
        """
        task_set = set(tasks)
        if not task_set:
            raise InvalidPartitionError("cannot add an empty block")
        for u in task_set:
            if u not in self.wf:
                raise InvalidPartitionError(
                    f"task {u!r} is not in the workflow")
            if u in self._task_block:
                raise InvalidPartitionError(
                    f"task {u!r} already belongs to block {self._task_block[u]}")
        return self._add_block(task_set, proc)

    def add_quotient_edge(self, a: BlockId, b: BlockId, cost: float) -> None:
        """Add (or strengthen) the quotient edge ``a -> b`` incrementally.

        Logged as ``("edge", a, b)`` — only the tail's bottom weight (and
        its ancestors') can change, so the evaluator reprices a handful of
        vertices instead of rebuilding. Acyclicity is *checked elsewhere*,
        exactly like :meth:`merge`.
        """
        if a not in self.blocks or b not in self.blocks:
            raise KeyError(f"unknown block in edge {a} -> {b}")
        if a == b:
            raise ValueError("a quotient self-loop is meaningless")
        self.succ[a][b] = self.succ[a].get(b, 0.0) + cost
        self.pred[b][a] = self.pred[b].get(a, 0.0) + cost
        self._log(("edge", a, b))

    def set_work(self, bid: BlockId, work: float) -> None:
        """Replace the work of ``bid`` (runtime-inflation events).

        Logged as ``("work", bid)``; incremental consumers reprice the
        block and its ancestors only.
        """
        self.blocks[bid].work = float(work)
        self._log(("work", bid))

    def _rebuild_edges(self) -> None:
        self._log(("rebuild",))
        for bid in self.blocks:
            self.succ[bid] = {}
            self.pred[bid] = {}
        for u, v, c in self.wf.edges():
            bu = self._task_block.get(u)
            bv = self._task_block.get(v)
            if bu is None or bv is None or bu == bv:
                continue
            self.succ[bu][bv] = self.succ[bu].get(bv, 0.0) + c
            self.pred[bv][bu] = self.pred[bv].get(bu, 0.0) + c

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.blocks)

    def node_ids(self) -> List[BlockId]:
        return list(self.blocks)

    def parents(self, bid: BlockId) -> List[BlockId]:
        return list(self.pred[bid])

    def children(self, bid: BlockId) -> List[BlockId]:
        return list(self.succ[bid])

    def neighbors(self, bid: BlockId) -> List[BlockId]:
        """Parents followed by children (the merge candidates of Alg. 3)."""
        return list(self.pred[bid]) + list(self.succ[bid])

    def block_of(self, u: Node) -> BlockId:
        return self._task_block[u]

    def assigned_ids(self) -> Set[BlockId]:
        return {bid for bid, blk in self.blocks.items() if blk.proc is not None}

    def unassigned_ids(self) -> Set[BlockId]:
        return {bid for bid, blk in self.blocks.items() if blk.proc is None}

    def used_processors(self) -> Set[str]:
        return {blk.proc.name for blk in self.blocks.values() if blk.proc is not None}

    # ------------------------------------------------------------------
    def merge(self, a: BlockId, b: BlockId) -> Tuple[BlockId, _UndoToken]:
        """Merge blocks ``a`` and ``b`` into a new vertex; returns undo token.

        The merged block inherits no processor (callers decide). Edge
        weights to common neighbours are summed; the internal ``a``/``b``
        edges disappear (their file never crosses processors any more).
        """
        if a == b:
            raise ValueError("cannot merge a block with itself")
        block_a, block_b = self.blocks[a], self.blocks[b]
        token = _UndoToken(
            new_id=-1, old_a=a, old_b=b, block_a=block_a, block_b=block_b,
            succ_a=dict(self.succ[a]), pred_a=dict(self.pred[a]),
            succ_b=dict(self.succ[b]), pred_b=dict(self.pred[b]),
        )

        merged_tasks = block_a.tasks | block_b.tasks
        new_id = next(self._ids)
        token.new_id = new_id
        self.blocks[new_id] = QBlock(tasks=merged_tasks,
                                     work=block_a.work + block_b.work)
        new_succ: Dict[BlockId, float] = {}
        new_pred: Dict[BlockId, float] = {}
        for old in (a, b):
            other = b if old == a else a
            for x, c in self.succ[old].items():
                if x != other:
                    new_succ[x] = new_succ.get(x, 0.0) + c
            for x, c in self.pred[old].items():
                if x != other:
                    new_pred[x] = new_pred.get(x, 0.0) + c

        # detach a and b from their neighbours
        for old in (a, b):
            for x in self.succ[old]:
                if x not in (a, b):
                    del self.pred[x][old]
            for x in self.pred[old]:
                if x not in (a, b):
                    del self.succ[x][old]
            del self.succ[old], self.pred[old], self.blocks[old]

        self.succ[new_id] = new_succ
        self.pred[new_id] = new_pred
        for x, c in new_succ.items():
            self.pred[x][new_id] = c
        for x, c in new_pred.items():
            self.succ[x][new_id] = c
        for u in merged_tasks:
            self._task_block[u] = new_id
        self._log(("merge", new_id, a, b))
        return new_id, token

    def unmerge(self, token: _UndoToken) -> None:
        """Reverse the merge that produced ``token``.

        Blocks, works, processors and edge weights come back exactly, and
        each restored vertex keeps its own adjacency order. Dict order does
        not: ``a`` then ``b`` are re-inserted at the end of ``blocks``,
        ``succ`` and ``pred``, and at the end of every neighbour's
        adjacency dict (each child's ``pred`` gets ``a`` for ``a``'s
        children, then ``b`` for ``b``'s; each parent's ``succ`` likewise).
        :meth:`reappend` leaves exactly this order without merging. The
        order feeds tie-breaks downstream (candidate order, the cycle
        :meth:`find_cycle` returns, the first maximal child of a critical
        path), so a merge followed by an unmerge is not a no-op.
        """
        new_id = token.new_id
        for x in self.succ[new_id]:
            del self.pred[x][new_id]
        for x in self.pred[new_id]:
            del self.succ[x][new_id]
        del self.succ[new_id], self.pred[new_id], self.blocks[new_id]

        a, b = token.old_a, token.old_b
        self.blocks[a] = token.block_a
        self.blocks[b] = token.block_b
        self.succ[a] = dict(token.succ_a)
        self.pred[a] = dict(token.pred_a)
        self.succ[b] = dict(token.succ_b)
        self.pred[b] = dict(token.pred_b)
        for old, adj, reverse in ((a, self.succ[a], self.pred),
                                  (b, self.succ[b], self.pred)):
            for x, c in adj.items():
                if x not in (a, b):
                    reverse[x][old] = c
        for old, adj, forward in ((a, self.pred[a], self.succ),
                                  (b, self.pred[b], self.succ)):
            for x, c in adj.items():
                if x not in (a, b):
                    forward[x][old] = c
        for u in token.block_a.tasks:
            self._task_block[u] = a
        for u in token.block_b.tasks:
            self._task_block[u] = b
        self._log(("unmerge", new_id, a, b))

    def reappend(self, a: BlockId, b: BlockId) -> None:
        """Leave the graph as ``unmerge(merge(a, b)[1])`` would, without merging.

        Consumes the block id the merge would have taken and re-appends
        ``a`` and ``b`` in the order :meth:`unmerge` restores them.
        Weights, works and edges are untouched, so the op log and
        :attr:`version` are too (incremental consumers have nothing to
        reprice).
        """
        next(self._ids)
        for table in (self.blocks, self.succ, self.pred):
            table[a] = table.pop(a)
            table[b] = table.pop(b)
        succ, pred = self.succ, self.pred
        for old, adj, reverse in ((a, succ[a], pred), (b, succ[b], pred),
                                  (a, pred[a], succ), (b, pred[b], succ)):
            for x in adj:
                if x != a and x != b:
                    rev = reverse[x]
                    rev[old] = rev.pop(old)

    # ------------------------------------------------------------------
    def topological_order(self) -> Optional[List[BlockId]]:
        """Kahn order, or ``None`` if the quotient is cyclic."""
        indeg = {bid: len(self.pred[bid]) for bid in self.blocks}
        ready = [bid for bid in self.blocks if indeg[bid] == 0]
        order: List[BlockId] = []
        head = 0
        while head < len(ready):
            u = ready[head]
            head += 1
            order.append(u)
            for v in self.succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        if len(order) != len(self.blocks):
            return None
        return order

    def is_acyclic(self) -> bool:
        return self.topological_order() is not None

    def find_cycle(self) -> Optional[List[BlockId]]:
        """Vertices of one directed cycle, or None. Iterative DFS."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {u: WHITE for u in self.blocks}
        parent: Dict[BlockId, Optional[BlockId]] = {}
        for root in self.blocks:
            if color[root] != WHITE:
                continue
            stack = [(root, iter(self.succ[root]))]
            color[root] = GRAY
            parent[root] = None
            while stack:
                u, it = stack[-1]
                advanced = False
                for v in it:
                    if color[v] == WHITE:
                        color[v] = GRAY
                        parent[v] = u
                        stack.append((v, iter(self.succ[v])))
                        advanced = True
                        break
                    if color[v] == GRAY:
                        cycle = [v]
                        x = u
                        while x is not None and x != v:
                            cycle.append(x)
                            x = parent[x]
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[u] = BLACK
                    stack.pop()
        return None

    def partition_blocks(self) -> List[Set[Node]]:
        """The current blocks as task sets (quotient-vertex order)."""
        return [set(blk.tasks) for blk in self.blocks.values()]
