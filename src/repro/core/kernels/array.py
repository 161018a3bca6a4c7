"""The array kernel: the same arithmetic, vectorized over CSR views.

Requires numpy. Every result is bit-for-bit equal to
:class:`~repro.core.kernels.reference.ReferenceKernel` — the operations
were chosen for that property, not merely for speed:

* elementwise ``/`` and ``+`` on float64 arrays are IEEE-identical to the
  scalar ops of the reference loops;
* per-node child maxima use ``np.maximum.reduceat`` (max is associative —
  exact under any grouping);
* segment *sums* (task requirements) use ``np.bincount(weights=...)``,
  which accumulates in scan order — the same left-to-right association as
  ``sum()`` over the adjacency dicts. ``np.sum``/``add.reduceat`` would
  NOT qualify: their pairwise summation rounds differently.

Compilation economics: building a CSR snapshot costs one O(V + E) python
pass — about the price of a single reference sweep. It pays off when the
structure is swept repeatedly (evaluator rebuilds, Step 4's per-probe
``set_proc`` + full-makespan pricing, big singleton quotients). In
``auto`` mode the kernel therefore falls back to the reference loops
below :data:`DEFAULT_CUTOFF` blocks, where per-call numpy overhead beats
the gain; selecting ``REPRO_KERNEL=array`` explicitly forces the array
path at every size (what the differential tests and the CI kernel-matrix
leg do).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.kernels.base import BlockId, Kernel, Node
from repro.core.kernels.reference import ReferenceKernel

import numpy as np

#: below this many blocks/tasks, `auto` mode stays on the reference loops
DEFAULT_CUTOFF = 256


class ArrayKernel(Kernel):
    """numpy kernels over compiled views; ``forced`` disables the cutoff."""

    name = "array"

    def __init__(self, forced: bool = False):
        self._forced = forced
        self._ref = ReferenceKernel()

    def _use_array(self, n: int) -> bool:
        return self._forced or n >= DEFAULT_CUTOFF

    # ------------------------------------------------------------------
    def bottom_weights(self, q, cluster, default_speed: float = 1.0
                       ) -> Dict[BlockId, float]:
        if not self._use_array(len(q.blocks)):
            return self._ref.bottom_weights(q, cluster, default_speed)
        from repro.core.compiled import CompiledQuotient

        return CompiledQuotient.of(q).bottom_weights(
            q, cluster, default_speed)

    def feasible_swap_pairs(self, ids: Sequence[BlockId],
                            requirement: Dict[BlockId, float],
                            blocks) -> List[Tuple[BlockId, BlockId]]:
        n = len(ids)
        if n < 2 or not self._use_array(n):
            return self._ref.feasible_swap_pairs(ids, requirement, blocks)
        req = np.fromiter((requirement[b] for b in ids),
                          dtype=np.float64, count=n)
        mem = np.empty(n, dtype=np.float64)
        codes = np.empty(n, dtype=np.intp)
        seen: Dict[int, int] = {}
        for i, b in enumerate(ids):
            p = blocks[b].proc
            mem[i] = p.memory
            codes[i] = seen.setdefault(id(p), len(seen))
        ok = ((codes[:, None] != codes[None, :])
              & (req[:, None] <= mem[None, :])
              & (req[None, :] <= mem[:, None]))
        ok &= ~np.tri(n, dtype=bool)  # keep strictly upper triangle (i < j)
        # argwhere is row-major: (i, j) pairs in the nested-loop order
        return [(ids[i], ids[j]) for i, j in np.argwhere(ok)]

    def memory_slack_order(self, bids: Sequence[BlockId],
                           slacks: Sequence[float], cap: int
                           ) -> List[BlockId]:
        n = len(bids)
        if not self._use_array(n):
            return self._ref.memory_slack_order(bids, slacks, cap)
        bid_arr = np.asarray(bids, dtype=np.int64)
        slack_arr = np.asarray(slacks, dtype=np.float64)
        # slack descending, ties by bid ascending — negating a float only
        # flips the sign bit, so the ordering is exact
        order = np.lexsort((bid_arr, -slack_arr))[:cap]
        return bid_arr[order].tolist()

    def task_requirements(self, wf) -> Dict[Node, float]:
        if not self._use_array(len(wf)):
            return self._ref.task_requirements(wf)
        cw = wf.compiled()
        return dict(zip(cw.nodes, cw.requirements().tolist()))
