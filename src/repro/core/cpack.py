"""``cpack``: the greedy critical-path packer (cheap O(n log n) contender).

The ROADMAP's "greedy critical-path packer" leftover: a scheduler that
spends O(n log n) on its packing decisions and gives the expensive
heuristics a floor to beat on large instances.

The idea is HEFT's priority order with DagHetPart's validity rules:

1. rank every task by its upward rank (critical-path length to a sink
   under mean speed and default bandwidth) and order tasks by
   decreasing rank, kept topological via heap-Kahn;
2. cut that order into **contiguous** segments — contiguity in a
   topological order guarantees the induced quotient graph is acyclic,
   so the Section 3.3 makespan model applies directly;
3. pack segments onto distinct processors, fastest first (the
   highest-rank segment carries the critical path, so it gets the
   fastest machine), closing a segment when its conservative memory
   footprint would overflow the processor or its work share is met.

Memory feasibility runs on the live-set recurrence: the data resident
after a segment ran is order-independent, and executing the next task on
top of it costs its activation (external inputs + task memory + outputs),
so the packer maintains the *exact* peak of every segment under its own
packing order in O(1) amortized per task. Processor memories are
*reserved* best-fit as segments close — cutting and speed assignment are
separate phases, so a fast machine is never burned on a segment a slow
one could hold — and three packing attempts trade schedule quality for
feasibility (critical-path order, peak-minimizing traversal, peak-min
without load-balancing closes). The packer never needs a repair pass,
and — unlike ``heftlist`` — never emits a mapping that violates the
memory constraint. On instances where no contiguous cut of any
traversal fits the cluster (co-scheduling structurally required), it
raises :class:`NoFeasibleMappingError`, which the façade reports as a
structured failure for that instance.
"""

from __future__ import annotations

import heapq
from typing import Dict, Hashable, List, Optional

from repro.core.mapping import BlockAssignment, Mapping
from repro.memdag.requirement import RequirementCache
from repro.platform.cluster import Cluster
from repro.utils.errors import NoFeasibleMappingError
from repro.workflow.graph import Workflow

Node = Hashable


def upward_ranks(wf: Workflow, avg_speed: float, beta: float) -> Dict[Node, float]:
    """HEFT upward ranks with mean execution cost and default bandwidth."""
    ranks: Dict[Node, float] = {}
    for u in reversed(wf.topological_order()):
        best_child = 0.0
        for v, c in wf.out_edges(u):
            cand = c / beta + ranks[v]
            if cand > best_child:
                best_child = cand
        ranks[u] = wf.work(u) / avg_speed + best_child
    return ranks


def rank_order(wf: Workflow, ranks: Dict[Node, float]) -> List[Node]:
    """Decreasing-rank list order, kept topological by Kahn with a max-heap.

    With positive work weights HEFT's plain sort by decreasing rank is
    already topological; running it through Kahn makes the order valid for
    zero-work tasks too, with ties broken by insertion order so the
    result is deterministic.
    """
    sequence = {u: i for i, u in enumerate(wf.tasks())}
    indeg = {u: wf.in_degree(u) for u in wf.tasks()}
    heap = [(-ranks[u], sequence[u], u) for u in wf.tasks() if indeg[u] == 0]
    heapq.heapify(heap)
    order: List[Node] = []
    while heap:
        _, _, u = heapq.heappop(heap)
        order.append(u)
        for v in wf.children(u):
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, (-ranks[v], sequence[v], v))
    return order


def critical_path_pack(wf: Workflow, cluster: Cluster,
                       cache: Optional[RequirementCache] = None) -> Mapping:
    """Pack the decreasing-rank order onto processors (module docstring).

    Raises :class:`NoFeasibleMappingError` when some task cannot fit any
    remaining processor under the conservative requirement bound.
    """
    if wf.n_tasks == 0:
        return Mapping(wf, cluster, [], algorithm="CPack")

    procs = sorted(cluster.processors, key=lambda p: (-p.speed, p.name))
    avg_speed = sum(p.speed for p in procs) / len(procs)
    beta = cluster.bandwidth_model.default
    req = {u: wf.task_requirement(u) for u in wf.tasks()}

    n_blocks = min(len(procs), wf.n_tasks)
    total_work = wf.total_work()
    target = total_work / n_blocks if total_work > 0 else 0.0
    cache = cache or RequirementCache(wf)

    def _reserve(pool: List[float], peak: float, where: Node) -> None:
        """Best-fit removal from the capacity pool (memory desc)."""
        for i in range(len(pool) - 1, -1, -1):  # smallest adequate memory
            if pool[i] >= peak:
                pool.pop(i)
                return
        raise NoFeasibleMappingError(
            f"cpack: segment ending at task {where!r} (peak {peak:g}) fits "
            f"no remaining processor of {cluster.name!r}",
            unplaced_tasks=wf.n_tasks)

    def _cut(order, share=True):
        """Cut ``order`` into contiguous segments with reserved capacity.

        Only memory capacities matter here: the pool tracks which
        processor memories are still unspoken for (best-fit reservation
        keeps the large ones for the segments that need them); speeds are
        assigned afterwards by :func:`_assign`.

        The running memory estimate is the live-set bound: ``live_end``
        is the exact data resident once every packed task has run
        (outputs to consumers outside the segment), and executing the
        next task ``u`` on top of that costs exactly
        ``live_end + req[u] - (inputs u consumes from inside)``. The
        running maximum of that quantity is therefore the *exact* peak
        of the segment under its own packing order — which tracks the
        true minimum closely on fan-heavy graphs, where the naive
        sum-of-requirements bound grows linearly while the real peak
        stays flat. The :class:`RequirementCache` heuristics search for
        a better order when the packing order's peak overflows
        (geometrically gated, so total compaction work stays linear),
        and each closed segment keeps whichever traversal is tighter.
        """
        pool = sorted((p.memory for p in procs), reverse=True)
        segments: List[List[Node]] = []
        peaks: List[float] = []
        traversals: List[tuple] = []
        # largest single-task requirement in order[i:]: a work-share close
        # must not reserve the last processor able to hold a later task
        suffix_max = [0.0] * (len(order) + 1)
        for i in range(len(order) - 1, -1, -1):
            suffix_max[i] = max(req[order[i]], suffix_max[i + 1])

        def best_order(seg, seg_order, bound):
            """The tighter of the packing order and the cache's traversal."""
            exact = cache.requirement(seg)
            if exact.peak < bound:
                return exact.peak, tuple(exact.order)
            return bound, tuple(seg_order) + tuple(seg[len(seg_order):])

        def close(seg, peak, order_t, where):
            _reserve(pool, peak, where)
            segments.append(seg)
            peaks.append(peak)
            traversals.append(order_t)

        seg: List[Node] = []      # tasks in packing order
        seg_order: List[Node] = []  # prefix realizing `bound` (see compaction)
        in_seg = set()
        live_end = 0.0     # exact: data resident after the whole segment ran
        bound = 0.0        # peak of the segment under seg_order + remainder
        last_compact = 0   # len(seg) at the last cache-assisted collapse
        acc_work = 0.0
        share_blocked = False
        for i, u in enumerate(order):
            internal_in = sum(c for v, c in wf.in_edges(u) if v in in_seg)
            proj = max(bound, live_end + req[u] - internal_in)
            if seg:
                cap = pool[0] if pool else float("-inf")
                if proj > cap and len(seg) >= max(2, 2 * last_compact):
                    # ask the traversal heuristics for a better order of
                    # the segment so far; the live set after the segment
                    # is order-independent, so later growth on top of the
                    # reordered prefix keeps the bound exact
                    exact = cache.requirement(seg)
                    if exact.peak < bound:
                        bound = exact.peak
                        seg_order = list(exact.order)
                    last_compact = len(seg)
                    proj = max(bound, live_end + req[u] - internal_in)
                share_met = (share and not share_blocked
                             and acc_work >= target * (len(segments) + 1)
                             and len(segments) < n_blocks - 1)
                if share_met:
                    # a voluntary close is only safe if the pool minus
                    # this segment's reservation keeps at least two
                    # processors able to hold the largest later task — a
                    # buffer for the forced closes still to come
                    peak, order_t = best_order(seg, seg_order, bound)
                    spare = sorted(pool)
                    for j, m in enumerate(spare):
                        if m >= peak:
                            del spare[j]
                            break
                    else:
                        spare = None
                    if spare is not None and sum(
                            1 for m in spare if m >= suffix_max[i]) >= 2:
                        close(seg, peak, order_t, u)
                        seg, seg_order, in_seg = [], [], set()
                        live_end = bound = 0.0
                        last_compact = 0
                        internal_in, proj = 0.0, req[u]
                    else:
                        share_blocked = True
                elif proj > cap:
                    peak, order_t = best_order(seg, seg_order, bound)
                    close(seg, peak, order_t, u)
                    seg, seg_order, in_seg = [], [], set()
                    live_end = bound = 0.0
                    last_compact = 0
                    share_blocked = False
                    internal_in, proj = 0.0, req[u]
            if not seg and (not pool or req[u] > pool[0]):
                raise NoFeasibleMappingError(
                    f"cpack: task {u!r} (requirement {req[u]:g}) fits no "
                    f"remaining processor of {cluster.name!r}",
                    unplaced_tasks=wf.n_tasks - sum(map(len, segments)))
            seg.append(u)
            in_seg.add(u)
            bound = proj
            live_end += wf.out_cost(u) - internal_in
            acc_work += wf.work(u)
        peak, order_t = best_order(seg, seg_order, bound)
        close(seg, peak, order_t, seg[-1])
        return segments, peaks, traversals

    def _coverable(peaks_desc: List[float], mems: List[float]) -> bool:
        """Greedy threshold matching: can ``mems`` cover these peaks?"""
        remaining = sorted(mems)
        for peak in peaks_desc:
            for i in range(len(remaining)):
                if remaining[i] >= peak:
                    del remaining[i]
                    break
            else:
                return False
        return True

    def _assign(segments, peaks):
        """Fastest processor per segment that keeps the rest coverable.

        Segments arrive in priority order (the highest-rank segment
        carries the critical path), so earlier segments get first pick of
        the fast machines — constrained so the remaining processors can
        still cover the remaining peaks (_cut's reservation guarantees at
        least one such choice exists).
        """
        chosen: List = []
        remaining = list(procs)  # speed desc
        for i, peak in enumerate(peaks):
            tail = sorted(peaks[i + 1:], reverse=True)
            pick = None
            for j, p in enumerate(remaining):
                if p.memory < peak:
                    continue
                if _coverable(tail, [r.memory for k, r in enumerate(remaining)
                                     if k != j]):
                    pick = j
                    break
            if pick is None:  # unreachable after _cut's reservation
                raise NoFeasibleMappingError(
                    f"cpack: no processor assignment covers segment peaks "
                    f"on {cluster.name!r}", unplaced_tasks=wf.n_tasks)
            chosen.append(remaining.pop(pick))
        return chosen

    # Three attempts, each trading more schedule quality for feasibility:
    # 1. the critical-path (decreasing-rank) order with load-balancing
    #    work-share closes — HEFT affinity, best makespans;
    # 2. the peak-minimizing traversal (also topological, so cuts stay
    #    acyclic) — rank order lists fan siblings before their join, so a
    #    segment can never free memory by consuming a sibling's outputs,
    #    fatal on memory-tight fan-heavy graphs; the peak-min traversal
    #    interleaves producers with consumers to keep the live set small;
    # 3. the peak-min traversal with work-share closes disabled — the cut
    #    packs each processor to its memory limit, sacrificing
    #    parallelism; succeeds whenever a contiguous cut of the traversal
    #    fits the cluster at all.
    attempts = (
        lambda: _cut(rank_order(wf, upward_ranks(wf, avg_speed, beta))),
        lambda: _cut(cache.requirement(list(wf.tasks())).order),
        lambda: _cut(cache.requirement(list(wf.tasks())).order, share=False),
    )
    for k, attempt in enumerate(attempts):
        try:
            segments, peaks, traversals = attempt()
            break
        except NoFeasibleMappingError:
            if k == len(attempts) - 1:
                raise
    chosen = _assign(segments, peaks)

    assignments = []
    for tasks, peak, order_t, p in zip(segments, peaks, traversals, chosen):
        assignments.append(BlockAssignment(
            tasks=frozenset(tasks), processor=p,
            requirement=peak, traversal=order_t))
    return Mapping(wf, cluster, assignments, algorithm="CPack")
