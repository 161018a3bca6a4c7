"""The ``sp`` engine is skipped exactly when it would repeat ``layered``.

``spize.certified_layered_order`` returns the layered order together with
a certificate that ``sp`` returns the same order, and ``MemdagSearch``
then leaves ``sp`` unrun. Checked here:

* whenever the certificate holds, ``_series_parallel_order`` returns the
  layered order, on random DAGs and on generated chains of junction tasks
  and bundles of one-task branches;
* on those chains the certificate holds exactly when no two bundles are
  adjacent and each bundle's merge keys are distinct, and a skip-level
  edge or a bundle task without children voids it;
* ``MemdagSearch`` returns what a search that always runs ``sp`` returns,
  uninterrupted, stopped by a capacity and resumed the way
  ``RequirementCache`` resumes it, and drops ``sp`` from ``pending`` as
  soon as ``layered`` has certified it, so a capacity query that such a
  block answers leaves no search open in the cache;
* one doubling sweep of blast-1000 and of genome-1000 runs the ``sp``
  engine a pinned number of times (a count, not a time).

Weights come from a small set holding ``0.0`` and ``±_EPS`` exactly, so
tied keys, zero weights and the releaser/producer boundary of the
two-class merge rule occur often.
"""

from __future__ import annotations

import importlib
import math
from operator import lt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memdag.model import BlockStatics
from repro.memdag.requirement import RequirementCache
from repro.memdag.segments import _EPS, merge_key
from repro.memdag.spize import certified_layered_order
from repro.memdag.traversal import (
    ENGINES,
    MemdagSearch,
    TraversalResult,
    _engine_order,
    _series_parallel_order,
)
from repro.workflow.graph import Workflow

VALUES = (0.0, _EPS, 0.1, 0.5, 0.7, 1.0, 3.0)
#: edge costs; an in-block input of ``_EPS`` next to a zero output gives
#: a valley of exactly ``-_EPS``
COSTS = VALUES + (2 * _EPS,)


@st.composite
def random_blocks(draw):
    """A random DAG over string ids and a non-empty subset of its tasks."""
    n = draw(st.integers(1, 10))
    wf = Workflow("random")
    for i in range(n):
        wf.add_task(f"t{i}", work=1.0, memory=draw(st.sampled_from(VALUES)))
    for j in range(n):
        for i in range(j):
            if draw(st.integers(0, 2)) == 0:
                wf.add_edge(f"t{i}", f"t{j}", draw(st.sampled_from(COSTS)))
    chosen = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    block = {f"t{i}" for i in range(n) if chosen[i]} or {"t0"}
    return wf, block, None


@st.composite
def chains(draw, adjacent_bundles=False):
    """A block of levels joined completely level to level: single junction
    tasks and bundles of 2-4 tasks, no two bundles adjacent unless
    ``adjacent_bundles``. Tasks ``in`` and ``out`` outside the block give
    some tasks external inputs and outputs. Returns the workflow, the
    block and its levels."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    if not adjacent_bundles:
        spaced = []
        for size in sizes:
            if spaced and size > 1 and spaced[-1] > 1:
                spaced.append(1)
            spaced.append(size)
        sizes = spaced
    wf = Workflow("chain")
    wf.add_task("in", work=1.0, memory=0.0)
    levels = []
    for i, size in enumerate(sizes):
        level = [f"l{i}t{j}" for j in range(size)]
        for u in level:
            wf.add_task(u, work=1.0, memory=draw(st.sampled_from(VALUES)))
            if draw(st.booleans()):
                wf.add_edge("in", u, draw(st.sampled_from(COSTS)))
        if levels:
            for u in levels[-1]:
                for v in level:
                    wf.add_edge(u, v, draw(st.sampled_from(COSTS)))
        levels.append(level)
    wf.add_task("out", work=1.0, memory=0.0)
    for level in levels:
        for u in level:
            if draw(st.booleans()):
                wf.add_edge(u, "out", draw(st.sampled_from(COSTS)))
    block = {u for level in levels for u in level}
    return wf, block, levels


def _expected_agreement(statics, levels):
    """Adjacent levels never both wide, and distinct keys in each bundle."""
    for below, above in zip(levels, levels[1:]):
        if len(below) > 1 and len(above) > 1:
            return False
    for level in levels:
        keys = sorted(merge_key(statics.a[u], statics.delta[u]) for u in level)
        if not all(map(lt, keys, keys[1:])):
            return False
    return True


class TestCertificate:
    @settings(deadline=None, max_examples=300)
    @given(st.one_of(random_blocks(), chains(), chains(adjacent_bundles=True)))
    def test_certified_orders_are_the_sp_orders(self, drawn):
        wf, block, levels = drawn
        statics = BlockStatics(wf, block)
        order, agrees = certified_layered_order(statics)
        if agrees:
            assert _series_parallel_order(statics) == order
        if levels is not None:
            assert agrees == _expected_agreement(statics, levels)

    @settings(deadline=None, max_examples=100)
    @given(chains(), st.data())
    def test_skip_level_edge_voids_certificate(self, drawn, data):
        wf, block, levels = drawn
        if len(levels) < 3:
            return
        i = data.draw(st.integers(0, len(levels) - 3))
        j = data.draw(st.integers(i + 2, len(levels) - 1))
        wf.add_edge(data.draw(st.sampled_from(levels[i])),
                    data.draw(st.sampled_from(levels[j])), 1.0)
        assert not certified_layered_order(BlockStatics(wf, block))[1]

    @settings(deadline=None, max_examples=100)
    @given(chains(), st.data())
    def test_early_sink_voids_certificate(self, drawn, data):
        """A task below the last level with no in-block child."""
        wf, block, levels = drawn
        if len(levels) < 2 or len(levels[-2]) < 2:
            return
        u = data.draw(st.sampled_from(levels[-2]))
        for v in levels[-1]:
            wf.remove_edge(u, v)
        assert not certified_layered_order(BlockStatics(wf, block))[1]


class AlwaysSpSearch:
    """``MemdagSearch`` without the skip: every pending engine runs."""

    def __init__(self, methods):
        self.pending = [m for m in ENGINES if m in methods]
        self.candidates = []

    def fitting(self, capacity):
        for peak, method, order in self.candidates:
            if peak <= capacity:
                return TraversalResult(order=order, peak=peak, method=method)
        return None

    def run(self, wf, block, capacity=None):
        statics = BlockStatics(wf, block)
        while self.pending:
            method = self.pending.pop(0)
            found = _engine_order(wf, statics, method)
            if found is None:
                continue
            peak, order, _ = found
            self.candidates.append((peak, method, order))
            if capacity is not None and peak <= capacity and self.pending:
                return TraversalResult(order=order, peak=peak, method=method)
        peak, method, order = min(self.candidates, key=lambda c: c[0])
        return TraversalResult(order=order, peak=peak, method=method)


def _expected_pending(reference, wf, block):
    """``reference.pending``, less ``sp`` once ``layered`` has run and
    certified it."""
    if "layered" in (method for _, method, _ in reference.candidates) and \
            certified_layered_order(BlockStatics(wf, block))[1]:
        return [m for m in reference.pending if m != "sp"]
    return reference.pending


def _bits(result):
    return None if result is None else (
        result.order, result.peak.hex(), result.method)


#: engine sets holding one that applies to every block (chains outgrow
#: ``exact``'s size limit)
methods_st = st.lists(st.sampled_from(ENGINES), min_size=1, max_size=4,
                      unique=True).filter(
    lambda ms: "best_first" in ms or "layered" in ms)
blocks_st = st.one_of(random_blocks(), chains(), chains(adjacent_bundles=True))


def _capacities(wf, block, methods):
    """0, every engine's peak and its neighbouring floats, and infinity."""
    reference = AlwaysSpSearch(methods)
    reference.run(wf, block)
    caps = [0.0, math.inf]
    for peak, _, _ in reference.candidates:
        caps += [peak, math.nextafter(peak, -math.inf),
                 math.nextafter(peak, math.inf)]
    return caps


class TestSearchMatchesAlwaysSp:
    @settings(deadline=None, max_examples=200)
    @given(blocks_st, methods_st)
    def test_uninterrupted(self, drawn, methods):
        wf, block, _ = drawn
        assert _bits(MemdagSearch(methods).run(wf, block)) == \
            _bits(AlwaysSpSearch(methods).run(wf, block))

    @settings(deadline=None, max_examples=200)
    @given(blocks_st, methods_st, st.data())
    def test_stopped_by_capacity(self, drawn, methods, data):
        wf, block, _ = drawn
        cap = data.draw(st.sampled_from(_capacities(wf, block, methods)))
        search, reference = MemdagSearch(methods), AlwaysSpSearch(methods)
        assert _bits(search.run(wf, block, cap)) == \
            _bits(reference.run(wf, block, cap))
        assert search.pending == _expected_pending(reference, wf, block)

    @settings(deadline=None, max_examples=200)
    @given(blocks_st, methods_st, st.data())
    def test_resumed(self, drawn, methods, data):
        """Capacity probes answered first from the kept candidates, then
        by resuming the engines, as ``RequirementCache`` does; then the
        requirement itself."""
        wf, block, _ = drawn
        probes = data.draw(st.lists(
            st.sampled_from(_capacities(wf, block, methods)), max_size=4))
        search, reference = MemdagSearch(methods), AlwaysSpSearch(methods)
        for cap in probes:
            if not reference.pending:
                break
            kept = search.fitting(cap)
            assert _bits(kept) == _bits(reference.fitting(cap))
            if kept is None:
                assert _bits(search.run(wf, block, cap)) == \
                    _bits(reference.run(wf, block, cap))
            assert search.pending == _expected_pending(reference, wf, block)
        assert _bits(search.run(wf, block)) == _bits(reference.run(wf, block))


class TestCacheClosesCertifiedBlocks:
    def test_fits_leaves_no_open_search(self, monkeypatch):
        """A capacity query that ``layered`` answers and certifies stores
        the requirement: the later lookup runs no engine."""
        wf = Workflow("chain")
        for u, memory in enumerate((1.0, 3.0, 0.5)):
            wf.add_task(u, work=1.0, memory=memory)
        wf.add_edge(0, 1, 0.7)
        wf.add_edge(1, 2, 0.1)
        block = {0, 1, 2}
        assert certified_layered_order(BlockStatics(wf, block))[1]
        cache = RequirementCache(wf, methods=("layered", "sp"))
        assert cache.fits(block, math.inf)
        assert cache._open == {}

        def no_engine(*args):
            raise AssertionError("an engine ran")

        monkeypatch.setattr(importlib.import_module("repro.memdag.traversal"),
                            "_engine_order", no_engine)
        assert cache.requirement(block).method == "layered"
        assert (cache.misses, cache.hits) == (1, 1)


class TestSweepCounts:
    @pytest.mark.parametrize("family, layered_runs, sp_runs", [
        ("blast", 97, 0),
        ("genome", 276, 54),
    ])
    def test_doubling_sweep_engine_runs(self, family, layered_runs, sp_runs,
                                        monkeypatch, in_process_sweep):
        """One doubling sweep at 1000 tasks (seed 4, memory-scaled) runs
        ``sp`` only where ``layered`` did not settle it; without the skip
        it ran once per ``layered`` run."""
        from repro.api import ScheduleRequest, solve
        from repro.generators.families import generate_workflow
        from repro.platform.presets import default_cluster

        traversal = importlib.import_module("repro.memdag.traversal")
        runs = {"layered": 0, "sp": 0}
        layered = traversal.certified_layered_order
        series_parallel = traversal._series_parallel_order

        def counting_layered(statics):
            runs["layered"] += 1
            return layered(statics)

        def counting_series_parallel(statics):
            runs["sp"] += 1
            return series_parallel(statics)

        monkeypatch.setattr(traversal, "certified_layered_order", counting_layered)
        monkeypatch.setattr(traversal, "_series_parallel_order",
                            counting_series_parallel)
        result = solve(ScheduleRequest(
            workflow=generate_workflow(family, 1000, seed=4),
            cluster=default_cluster(), algorithm="daghetpart",
            scale_memory=True))
        assert result.success
        assert [p.k_prime for p in result.sweep] == [1, 2, 4, 8, 16, 32, 36]
        assert runs == {"layered": layered_runs, "sp": sp_runs}
