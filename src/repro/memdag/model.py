"""Memory semantics of executing a block of a workflow on one processor.

The model generalizes the paper's single-task requirement
``r_u = sum_in c + sum_out c + m_u`` to multi-task blocks:

* an **internal** edge ``(u, v)`` (both endpoints inside the block) occupies
  ``c_{u,v}`` bytes from the completion of ``u`` to the completion of ``v``;
* an **external input** ``(x, u)`` (``x`` outside the block) occupies
  ``c_{x,u}`` only while ``u`` executes;
* an **external output** ``(u, y)`` (``y`` outside) occupies ``c_{u,y}``
  from the completion of ``u`` until the whole block finishes;
* while ``u`` executes, its own ``m_u`` plus all its output files are
  resident (outputs are being written).

For a traversal ``sigma`` the peak is ``max_t [ live_before(t) +
ext_in(sigma_t) + m_{sigma_t} + out(sigma_t) ]``; a singleton block
reduces to ``r_u`` exactly.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.workflow.graph import Workflow

Node = Hashable


class TraversalState:
    """Incremental evaluation of a traversal of one block.

    ``execute(u)`` returns the memory usage *during* u's execution and
    updates the resident-set size. The caller is responsible for feeding
    tasks in an order that is topological w.r.t. the block-internal edges
    (checked in debug mode via :meth:`ready`).
    """

    __slots__ = ("wf", "block", "live", "peak", "executed", "_pending_preds")

    def __init__(self, wf: Workflow, block: Optional[Set[Node]] = None):
        self.wf = wf
        self.block: Set[Node] = set(block) if block is not None else set(wf.tasks())
        self.live = 0.0
        self.peak = 0.0
        self.executed: Set[Node] = set()
        # number of not-yet-executed block-internal predecessors per task
        self._pending_preds: Dict[Node, int] = {
            u: sum(1 for p in wf.parents(u) if p in self.block) for u in self.block
        }

    def ready(self, u: Node) -> bool:
        """True when all block-internal parents of ``u`` have executed."""
        return self._pending_preds[u] == 0 and u not in self.executed

    def usage_if_executed(self, u: Node) -> float:
        """Memory usage during ``u``'s execution if it ran right now."""
        return self.live + self._ext_in(u) + self.wf.memory(u) + self.wf.out_cost(u)

    def delta_if_executed(self, u: Node) -> float:
        """Change of resident-set size after ``u`` completes (out - freed in)."""
        freed = sum(c for p, c in self.wf.in_edges(u) if p in self.block)
        return self.wf.out_cost(u) - freed

    def execute(self, u: Node) -> float:
        """Run ``u``; returns usage during execution, updates live/peak."""
        if u not in self.block:
            raise KeyError(f"task {u!r} is not in the block")
        if not self.ready(u):
            raise ValueError(f"task {u!r} executed before its in-block parents")
        usage = self.usage_if_executed(u)
        self.live += self.delta_if_executed(u)
        self.peak = max(self.peak, usage)
        self.executed.add(u)
        for v in self.wf.children(u):
            if v in self.block:
                self._pending_preds[v] -= 1
        return usage

    def ready_tasks(self) -> List[Node]:
        """All currently executable tasks (deterministic order)."""
        return [u for u in self.block if u not in self.executed and self._pending_preds[u] == 0]

    def complete(self) -> bool:
        return len(self.executed) == len(self.block)

    def _ext_in(self, u: Node) -> float:
        return sum(c for p, c in self.wf.in_edges(u) if p not in self.block)


class BlockStatics:
    """Per-task quantities of one block that no traversal changes.

    One pass over each task's parent dict, memory and child dict, read
    through :meth:`Workflow.adjacency`, computes for every task ``u``:

    * ``terms[u] = (ext_in, m, out, delta)`` — the three addends of the
      usage while ``u`` executes and the net change of the resident set
      once it completes (``out - freed``, ``freed`` being the in-block
      inputs it consumes);
    * ``a[u] = ext_in + m + out`` and ``delta[u]`` — the activation and net
      change the engines rank and merge by (see segments.py); ``a`` rounds
      differently from the left-to-right usage sum, so peaks never use it;
    * ``n_pred[u]`` — its number of in-block parents;
    * ``kids[u]`` — its in-block children, in the workflow's child order.

    ``block`` is kept as given: the engines iterate it, and their
    tie-breaks follow its iteration order.
    """

    __slots__ = ("block", "terms", "a", "delta", "n_pred", "kids")

    def __init__(self, wf: Workflow, block: Set[Node]):
        self.block = block
        self.terms: Dict[Node, Tuple[float, float, float, float]] = {}
        self.a: Dict[Node, float] = {}
        self.delta: Dict[Node, float] = {}
        self.n_pred: Dict[Node, int] = {}
        self.kids: Dict[Node, List[Node]] = {}
        terms, a, deltas, n_preds, kids = (
            self.terms, self.a, self.delta, self.n_pred, self.kids)
        # ``out`` is the sum out_cost() computes
        parents, memory, children = wf.adjacency()
        for u in block:
            ext_in = 0.0
            freed = 0.0
            n_pred = 0
            for p, c in parents[u].items():
                if p in block:
                    freed += c
                    n_pred += 1
                else:
                    ext_in += c
            m = memory[u]
            outs = children[u]
            out = sum(outs.values())
            delta = out - freed
            terms[u] = (ext_in, m, out, delta)
            a[u] = ext_in + m + out
            deltas[u] = delta
            n_preds[u] = n_pred
            # a plain loop: cheaper than a comprehension on these short lists
            kids[u] = in_block = []
            for v in outs:
                if v in block:
                    in_block.append(v)


def traversal_peak(statics: BlockStatics, order: Sequence[Node]) -> float:
    """:func:`peak_of_traversal` of a valid ``order``, from the statics.

    The same float operations in the same order as :class:`TraversalState`
    (usage ``((live + ext_in) + m) + out``, then ``live += out - freed``),
    so the result is bit-identical; ``order`` is trusted to be a
    topological order of the whole block and is not checked.
    """
    terms = statics.terms
    live = 0.0
    peak = float("-inf")
    for u in order:
        ext_in, m, out, delta = terms[u]
        usage = live + ext_in + m + out
        if usage > peak:
            peak = usage
        live += delta
    return peak if order else 0.0


def evaluate_traversal(wf: Workflow, order: Sequence[Node],
                       block: Optional[Set[Node]] = None) -> List[float]:
    """Per-step memory usage of ``order``; raises if the order is invalid."""
    block_set = set(block) if block is not None else set(wf.tasks())
    if set(order) != block_set:
        raise ValueError("traversal must cover the block exactly once")
    state = TraversalState(wf, block_set)
    return [state.execute(u) for u in order]


def peak_of_traversal(wf: Workflow, order: Sequence[Node],
                      block: Optional[Set[Node]] = None) -> float:
    """Peak memory of a traversal (max of :func:`evaluate_traversal`)."""
    usages = evaluate_traversal(wf, order, block)
    return max(usages) if usages else 0.0


class BlockPackingState:
    """Streaming packer used by the DagHetMem baseline (Section 4.1).

    Walks a fixed global traversal and grows the current block task by
    task, maintaining the block's running peak under the semantics above.
    Edges whose producer lives in an *earlier, already-closed* block are
    external inputs of the current block; edges to not-yet-traversed tasks
    are conservatively retained until the block closes (they are either
    internal-until-consumed or external-output-until-close — both resident).
    """

    def __init__(self, wf: Workflow, capacity: float):
        self.wf = wf
        self.capacity = float(capacity)
        self.live = 0.0
        self.peak = 0.0
        self.tasks: Set[Node] = set()
        self._closed: Set[Node] = set()  # tasks of earlier blocks

    def usage_if_added(self, u: Node) -> float:
        ext_in = sum(c for p, c in self.wf.in_edges(u) if p in self._closed)
        return self.live + ext_in + self.wf.memory(u) + self.wf.out_cost(u)

    def fits(self, u: Node) -> bool:
        return self.usage_if_added(u) <= self.capacity

    def add(self, u: Node) -> float:
        """Append ``u`` to the current block; returns usage during execution."""
        usage = self.usage_if_added(u)
        freed = sum(c for p, c in self.wf.in_edges(u) if p in self.tasks)
        self.live += self.wf.out_cost(u) - freed
        self.peak = max(self.peak, usage)
        self.tasks.add(u)
        return usage

    def close_block(self, capacity: float) -> Set[Node]:
        """Finish the current block and start a new empty one."""
        finished = self.tasks
        self._closed |= finished
        self.tasks = set()
        self.live = 0.0
        self.peak = 0.0
        self.capacity = float(capacity)
        return finished
