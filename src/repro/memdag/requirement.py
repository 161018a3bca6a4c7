"""Block memory requirement ``r_{V_i}`` with caching.

Step 2 and Step 3 of DagHetPart recompute block requirements constantly —
after every tentative merge and every repartition. Requirements depend only
on the block's task set (given a fixed workflow), so a cache keyed by the
frozen task set removes the dominant cost from the merge search.

Step 3's merge search only asks whether a merged block fits its target
processor. :meth:`RequirementCache.fits` answers that with the cheapest
sufficient engines: the requirement is the minimum peak over the engines,
so the first engine whose peak fits proves the answer, and the rest run
only if someone later asks for the requirement itself.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Optional

from repro.memdag.traversal import MemdagSearch, TraversalResult
from repro.workflow.graph import Workflow

Node = Hashable


def block_requirement(wf: Workflow, block: Iterable[Node],
                      methods=("best_first", "layered", "sp"), *,
                      capacity: Optional[float] = None,
                      search: Optional[MemdagSearch] = None) -> TraversalResult:
    """Memory requirement of a block: best traversal found and its peak.

    For a singleton block the peak is exactly ``r_u``.

    With ``capacity`` the engines stop at the first candidate whose peak
    is ``<= capacity``, and that candidate is returned: it settles "does
    the block fit?" but its peak is only an upper bound on the
    requirement. ``search`` resumes the engines already run on this
    block by an earlier call (it is advanced in place).
    """
    if search is None:
        search = MemdagSearch(methods)
    return search.run(wf, set(block), capacity)


class RequirementCache:
    """Memoizes :func:`block_requirement` for a fixed workflow.

    The heuristics thread one instance through all steps. A lookup —
    :meth:`requirement`, :meth:`peak` or :meth:`fits` — counts as a
    ``miss`` the first time its block is seen and as a ``hit`` every time
    after, whether or not engines still had to run to answer it (a
    capacity query leaves the remaining engines for a later exact
    lookup); tests inspect the counts to assert that the merge search
    reuses results.
    """

    def __init__(self, wf: Workflow, methods=("best_first", "layered", "sp")):
        self.wf = wf
        self.methods = tuple(methods)
        self._store: Dict[FrozenSet[Node], TraversalResult] = {}
        #: blocks whose engines stopped early at a capacity query
        self._open: Dict[FrozenSet[Node], MemdagSearch] = {}
        self.hits = 0
        self.misses = 0

    def requirement(self, block: Iterable[Node],
                    capacity: Optional[float] = None) -> TraversalResult:
        """The block's requirement; with ``capacity``, see :meth:`fits`.

        A result obtained with ``capacity`` may be a candidate that fits
        rather than the requirement — callers other than :meth:`fits`
        leave ``capacity`` unset.
        """
        key = frozenset(block)
        cached = self._store.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        search = self._open.get(key)
        if search is None:
            self.misses += 1
            search = MemdagSearch(self.methods)
        else:
            self.hits += 1
            if capacity is not None:
                fitting = search.fitting(capacity)
                if fitting is not None:
                    return fitting
        result = block_requirement(self.wf, key, self.methods,
                                   capacity=capacity, search=search)
        if search.pending:
            self._open[key] = search
        else:
            self._open.pop(key, None)
            self._store[key] = result
        return result

    def peak(self, block: Iterable[Node]) -> float:
        return self.requirement(block).peak

    def fits(self, block: Iterable[Node], capacity: float) -> bool:
        """Exactly ``self.peak(block) <= capacity``, from the fewest engines.

        The engines run in their configured order and stop at the first
        whose peak is ``<= capacity``; that is sound because the
        requirement is the minimum over the engines. The candidates found
        are kept, so a later :meth:`requirement` runs only the missing
        engines and returns what a fresh cache would.
        """
        return self.requirement(block, capacity=capacity).peak <= capacity

    def __len__(self) -> int:
        return len(self._store) + len(self._open)
