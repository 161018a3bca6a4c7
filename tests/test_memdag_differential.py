"""Differential tests of the memdag engines' shared pieces on random blocks.

Each fast path is checked bit for bit against the plain code it replaces:

* :class:`BlockStatics` against values recomputed through the public
  ``Workflow`` accessors, one task at a time;
* ``certified_layered_order``'s per-level sort by :func:`merge_key` against the
  hill-valley merge of one-segment sequences, level by level;
* :func:`merge_segment_sequences` (one stable sort of the normalized
  sequences) against a copy of the greedy heap merge it replaced;
* ``best_first_traversal``'s heap of flat tuples against a copy of the
  priority-function heap it replaced.

Costs, memories, hills and valleys are drawn from small sets that include
``_EPS`` and ``-_EPS`` exactly, so tied keys and the releaser/producer
boundary of the two-class rule occur often, and values such as 0.1 and 0.7
whose sums round differently in another order.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memdag.model import BlockStatics
from repro.memdag.segments import (
    _EPS,
    Segment,
    merge_key,
    merge_segment_sequences,
)
from repro.memdag.spize import certified_layered_order
from repro.memdag.traversal import best_first_traversal
from repro.workflow.graph import Workflow

VALUES = (0.0, _EPS, 0.1, 0.2, 0.5, 0.7, 1.0, 3.0)
SIGNED = VALUES + (-_EPS, -0.5, -1.0, -2.0)
#: a segment's (hill, valley)
segment_values = st.tuples(st.sampled_from(VALUES), st.sampled_from(SIGNED))


@st.composite
def blocks(draw, values=VALUES):
    """A random DAG over string ids and a non-empty subset of its tasks."""
    n = draw(st.integers(1, 12))
    wf = Workflow("random")
    for i in range(n):
        wf.add_task(f"t{i}", work=1.0, memory=draw(st.sampled_from(values)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else ():
        wf.add_edge(f"t{i}", f"t{j}", draw(st.sampled_from(values)))
    # a fan-in and a fan-out task, so that some sums have three or more terms
    for i in range(n - 1):
        if draw(st.booleans()):
            wf.add_edge(f"t{i}", f"t{n - 1}", draw(st.sampled_from(values)))
        if i and draw(st.booleans()):
            wf.add_edge("t0", f"t{i}", draw(st.sampled_from(values)))
    chosen = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    block = {f"t{i}" for i in range(n) if chosen[i]} or {"t0"}
    return wf, block


def _bits(x: float) -> str:
    return float(x).hex()


class TestBlockStatics:
    @settings(deadline=None, max_examples=150)
    @given(blocks())
    def test_matches_public_accessors(self, drawn):
        wf, block = drawn
        statics = BlockStatics(wf, block)
        assert statics.block is block
        assert list(statics.terms) == list(block)
        for u in block:
            ext_in = 0.0
            freed = 0.0
            n_pred = 0
            for p, c in wf.in_edges(u):
                if p in block:
                    freed += c
                    n_pred += 1
                else:
                    ext_in += c
            m = wf.memory(u)
            out = wf.out_cost(u)
            delta = out - freed
            assert tuple(map(_bits, statics.terms[u])) == tuple(
                map(_bits, (ext_in, m, out, delta)))
            assert _bits(statics.a[u]) == _bits(ext_in + m + out)
            assert _bits(statics.delta[u]) == _bits(delta)
            assert statics.n_pred[u] == n_pred
            assert statics.kids[u] == [v for v in wf.children(u) if v in block]


def _levels_merged(statics: BlockStatics):
    """The layered order as the per-level merge of one-segment sequences."""
    indeg = dict(statics.n_pred)
    levels = dict.fromkeys(statics.block, 0)
    ready = [u for u in statics.block if indeg[u] == 0]
    head = 0
    while head < len(ready):
        u = ready[head]
        head += 1
        for v in statics.kids[u]:
            levels[v] = max(levels[v], levels[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    by_level = {}
    for u in ready:
        by_level.setdefault(levels[u], []).append(u)
    order = []
    for lvl in sorted(by_level):
        merged, _ = merge_segment_sequences(
            [[Segment((u,), statics.a[u], statics.delta[u])] for u in by_level[lvl]])
        order.extend(merged)
    return order


class TestLayeredSort:
    @settings(deadline=None, max_examples=150)
    @given(blocks())
    def test_level_sort_is_the_one_segment_merge(self, drawn):
        wf, block = drawn
        statics = BlockStatics(wf, block)
        assert certified_layered_order(statics)[0] == _levels_merged(statics)

    @settings(deadline=None, max_examples=150)
    @given(st.lists(segment_values, max_size=16))
    def test_key_sort_ties_and_eps_boundary(self, hv):
        """Independent tasks with tied keys and valleys of exactly
        ``±_EPS``: the stable key sort keeps the merge's order."""
        tasks = list(range(len(hv)))
        by_sort = sorted(tasks, key=lambda i: merge_key(*hv[i]))
        merged, _ = merge_segment_sequences([[Segment((i,), h, v)] for i, (h, v) in enumerate(hv)])
        assert by_sort == merged


def _key(seg):
    """The two-class key as ``Segment.key`` computed it."""
    if seg.v <= _EPS:
        return (0, seg.h)
    return (1, -(seg.h - seg.v))


def _normalized(segments):
    stack = []
    for seg in segments:
        stack.append(seg)
        while len(stack) >= 2 and _key(stack[-1]) < _key(stack[-2]):
            right = stack.pop()
            left = stack.pop()
            stack.append(Segment(left.tasks + right.tasks,
                                 max(left.h, left.v + right.h), left.v + right.v))
    return stack


def _heap_merge(sequences):
    """The greedy head merge ``merge_segment_sequences`` used to run."""
    normalized = [seq if len(seq) == 1 else _normalized(seq)
                  for seq in sequences if seq]
    heap = [(_key(seq[0]), si, 0) for si, seq in enumerate(normalized)]
    heapq.heapify(heap)
    order = []
    live = 0.0
    peak = 0.0
    while heap:
        _, si, idx = heapq.heappop(heap)
        seg = normalized[si][idx]
        order.extend(seg.tasks)
        peak = max(peak, live + seg.h)
        live += seg.v
        if idx + 1 < len(normalized[si]):
            heapq.heappush(heap, (_key(normalized[si][idx + 1]), si, idx + 1))
    return order, peak


class TestMergeSequences:
    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.lists(segment_values, max_size=5), max_size=6))
    def test_matches_heap_merge(self, raw):
        label = iter(range(10**6))
        sequences = [[Segment((next(label), next(label)), h, v) for h, v in seq]
                     for seq in raw]
        order, peak = merge_segment_sequences(sequences)
        ref_order, ref_peak = _heap_merge(sequences)
        assert order == ref_order
        assert _bits(peak) == _bits(ref_peak)


def _best_first_by_priority(wf, block):
    """The best-first order as a heap of ``priority(u) + (u,)`` entries."""
    statics = BlockStatics(wf, block)
    a, delta, kids = statics.a, statics.delta, statics.kids
    seq = wf.positions()

    def prio(u):
        d = delta[u]
        return (0 if d <= 0 else 1, a[u], d, seq[u])

    pending = dict(statics.n_pred)
    heap = [prio(u) + (u,) for u in block if pending[u] == 0]
    heapq.heapify(heap)
    order = []
    while heap:
        *_, u = heapq.heappop(heap)
        order.append(u)
        for v in kids[u]:
            pending[v] -= 1
            if pending[v] == 0:
                heapq.heappush(heap, prio(v) + (v,))
    return order


class TestBestFirst:
    @settings(deadline=None, max_examples=300)
    @given(blocks(values=(0.0, 1.0, 2.0)))
    def test_matches_priority_heap(self, drawn):
        """Few distinct values, so priorities tie often and the releaser
        class boundary (``delta == 0``) is hit."""
        wf, block = drawn
        assert best_first_traversal(wf, block) == _best_first_by_priority(wf, block)
