"""Differential tests of capacity queries against exact requirements.

``RequirementCache.fits`` stops the engines at the first candidate that
fits, and ``RequirementCache.requirement`` resumes a stopped search; both
must give exactly the answers of the uninterrupted minimum over all
engines, here recomputed from each engine's order with
``peak_of_traversal``, and the fused peak every engine is scored with
must equal ``peak_of_traversal`` bit for bit. Hypothesis draws small
DAGs with adversarial float weights (0.1 + 0.2 != 0.3 style sums) and
arbitrary blocks of them, most of which are not series-parallel.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristic import dag_het_part_sweep
from repro.experiments.instances import scaled_cluster_for
from repro.generators.families import generate_workflow
from repro.memdag.model import BlockStatics, peak_of_traversal, traversal_peak
from repro.memdag.requirement import RequirementCache, block_requirement
from repro.memdag.spize import layered_traversal
from repro.memdag.traversal import (
    ENGINES,
    EXACT_SIZE_LIMIT,
    MemdagSearch,
    TraversalResult,
    best_first_traversal,
    brute_force_min_peak,
    memdag_traversal,
    sp_traversal,
)
from repro.platform.presets import default_cluster
from repro.workflow.graph import Workflow

#: weights whose sums round: 0.1 + 0.2 > 0.3, 0.7 + 0.1 < 0.8, ...
WEIGHTS = (0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 1.0 / 3.0, 2.5, 1e-9, 1e6 + 0.1)


@st.composite
def dag_and_block(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    wf = Workflow("random")
    for u in range(n):
        wf.add_task(u, work=1.0, memory=draw(st.sampled_from(WEIGHTS)))
    for v in range(n):
        for u in range(v):
            if draw(st.integers(0, 2)) == 0:
                wf.add_edge(u, v, draw(st.sampled_from(WEIGHTS)))
    block = draw(st.sets(st.integers(0, n - 1), min_size=1))
    return wf, block


methods_st = st.lists(st.sampled_from(ENGINES), min_size=1, max_size=4,
                      unique=True).filter(lambda ms: ms != ["sp"])


def _reference(wf, block, methods) -> TraversalResult:
    """The requirement from first principles: every configured engine's
    order scored by ``peak_of_traversal``, the first smallest peak wins."""
    candidates = []
    for method in ENGINES:
        if method not in methods:
            continue
        if method == "exact":
            if len(block) <= EXACT_SIZE_LIMIT:
                result = brute_force_min_peak(wf, block, EXACT_SIZE_LIMIT)
                candidates.append((result.peak, method, result.order))
            continue
        engine = {"best_first": best_first_traversal,
                  "layered": layered_traversal, "sp": sp_traversal}[method]
        order = engine(wf, block)
        if order is not None:
            candidates.append((peak_of_traversal(wf, order, block), method,
                               tuple(order)))
    peak, method, order = min(candidates, key=lambda c: c[0])
    return TraversalResult(order=order, peak=peak, method=method)


def _capacities(wf, block, methods):
    exact = _reference(wf, block, methods).peak
    first = peak_of_traversal(wf, best_first_traversal(wf, set(block)), block)
    return [exact, math.nextafter(exact, -math.inf),
            math.nextafter(exact, math.inf), first, 0.0, math.inf]


def _same(a, b) -> bool:
    return (a.order == b.order and a.method == b.method
            and a.peak.hex() == b.peak.hex())


@settings(max_examples=150, deadline=None)
@given(dag_and_block(), methods_st)
def test_fits_equals_exact_comparison(case, methods):
    wf, block = case
    exact = _reference(wf, block, methods).peak
    shared = RequirementCache(wf, methods=methods)
    for cap in _capacities(wf, block, methods):
        expected = exact <= cap
        assert RequirementCache(wf, methods=methods).fits(block, cap) is expected
        assert shared.fits(block, cap) is expected


@settings(max_examples=150, deadline=None)
@given(dag_and_block(), methods_st, st.data())
def test_requirement_after_fits_matches_fresh_cache(case, methods, data):
    wf, block = case
    caps = _capacities(wf, block, methods)
    probes = data.draw(st.lists(st.sampled_from(caps), max_size=4))
    cache = RequirementCache(wf, methods=methods)
    for cap in probes:
        cache.fits(block, cap)
    resumed = cache.requirement(block)
    fresh = RequirementCache(wf, methods=methods).requirement(block)
    assert _same(resumed, fresh)
    assert _same(resumed, _reference(wf, block, methods))
    assert _same(resumed, memdag_traversal(wf, block, methods=methods))
    # the first lookup of a block is its only miss
    assert (cache.misses, cache.hits) == (1, len(probes))
    assert cache.requirement(block) is resumed


@settings(max_examples=150, deadline=None)
@given(dag_and_block())
def test_fused_peak_is_bitwise_peak_of_traversal(case):
    wf, block = case
    statics = BlockStatics(wf, set(block))
    orders = [best_first_traversal(wf, block), layered_traversal(wf, block)]
    sp = sp_traversal(wf, block)
    if sp is not None:
        orders.append(sp)
    for order in orders:
        reference = peak_of_traversal(wf, order, block)
        assert traversal_peak(statics, order).hex() == reference.hex()


def test_capacity_query_runs_only_the_engines_it_needs():
    wf = Workflow("n-shape")  # a -> c, a -> d, b -> d: not series-parallel
    for u in "abcd":
        wf.add_task(u, memory=0.1)
    for u, v in [("a", "c"), ("a", "d"), ("b", "d")]:
        wf.add_edge(u, v, 0.2)
    block = set("abcd")
    assert sp_traversal(wf, block) is None

    search = MemdagSearch(("sp", "layered", "best_first"))
    fitting = block_requirement(wf, block, capacity=math.inf, search=search)
    assert fitting.method == "best_first"
    assert search.pending == ["layered", "sp"]
    exact = block_requirement(wf, block, search=search)
    assert search.pending == []
    assert [method for _, method, _ in search.candidates] == \
        ["best_first", "layered"]
    assert _same(exact, memdag_traversal(wf, block))

    cache = RequirementCache(wf)
    assert cache.fits(block, math.inf)
    assert cache.fits(block, math.inf)  # answered by the kept candidate
    assert not cache.fits(block, 0.0)  # runs the rest, completes the entry
    assert (cache.misses, cache.hits, len(cache)) == (1, 2, 1)
    assert _same(cache.requirement(block), memdag_traversal(wf, block))


def test_empty_block_fits_everything():
    wf = Workflow("empty")
    cache = RequirementCache(wf)
    assert cache.fits(set(), 0.0)
    assert cache.requirement(set()).method == "empty"


@pytest.mark.parametrize("family", ["genome", "blast", "montage"])
def test_solves_with_capacity_queries_equal_exact_comparisons(family,
                                                              monkeypatch):
    """A full DagHetPart sweep decides the same with and without ``fits``.

    The second run answers every capacity query by computing the exact
    requirement first; the sweep trace, the winning k' and every block
    assignment must come out identical.
    """
    wf = generate_workflow(family, 200, seed=0)
    cluster = scaled_cluster_for(wf, default_cluster())

    probes = {"early": 0}
    real_fits = RequirementCache.fits

    def counting_fits(self, block, capacity):
        answer = real_fits(self, block, capacity)
        key = frozenset(block)
        probes["early"] += key in self._open
        return answer

    monkeypatch.setattr(RequirementCache, "fits", counting_fits)
    shipped = dag_het_part_sweep(wf, cluster)
    monkeypatch.setattr(RequirementCache, "fits",
                        lambda self, block, capacity:
                        self.requirement(block).peak <= capacity)
    exact = dag_het_part_sweep(wf, cluster)

    assert probes["early"] > 0  # some queries really stopped early
    assert shipped.sweep == exact.sweep
    assert shipped.k_prime == exact.k_prime

    def assignments(outcome):
        return [(a.tasks, a.processor.name, a.requirement.hex(), a.traversal)
                for a in outcome.mapping.assignments]

    assert assignments(shipped) == assignments(exact)
