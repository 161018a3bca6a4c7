"""Exact solver: differential optimality, guards, registry integration.

The ground truth is a deliberately naive enumerator — every partition
crossed with every injective processor choice, each evaluated through
the shared :class:`Mapping` makespan engine — so the solver's pruned
search is checked against an implementation with no pruning to be wrong
about.
"""

import itertools
import random

import pytest

from repro.api import ExactConfig, ScheduleRequest, solve
from repro.core.exact import (
    DEFAULT_MAX_TASKS,
    _partitions,
    _quotient_edges,
    exact_schedule,
)
from repro.core.mapping import BlockAssignment, Mapping
from repro.memdag.requirement import RequirementCache
from repro.platform.bandwidth import LinkBandwidth
from repro.platform.cluster import Cluster, Processor
from repro.utils.errors import NoFeasibleMappingError
from repro.workflow.graph import Workflow


def _random_workflow(rng, n):
    wf = Workflow(f"rand{n}")
    for i in range(n):
        wf.add_task(i, work=rng.uniform(1, 10), memory=rng.uniform(1, 4))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                wf.add_edge(i, j, cost=rng.uniform(0.1, 5))
    return wf


def _hetero_cluster():
    return Cluster([
        Processor("p0", speed=3.0, memory=6.0),
        Processor("p1", speed=3.0, memory=6.0),   # p0's twin: one kind
        Processor("p2", speed=1.5, memory=12.0),
        Processor("p3", speed=1.0, memory=20.0),
    ], bandwidth=2.0, name="tiny-hetero")


def _naive_optimum(wf, cluster):
    """Exhaustive ground truth (no kind grouping, no pruning)."""
    cache = RequirementCache(wf)
    tasks = wf.topological_order()
    best = None
    for part in _partitions(tasks, min(cluster.k, len(tasks))):
        block_of = {t: b for b, blk in enumerate(part) for t in blk}
        if _quotient_edges(wf, block_of, len(part)) is None:
            continue
        peaks = [cache.peak(b) for b in part]
        for procs in itertools.permutations(cluster.processors, len(part)):
            if any(pk > p.memory + 1e-9 for pk, p in zip(peaks, procs)):
                continue
            assignments = [
                BlockAssignment(tasks=frozenset(b), processor=p,
                                requirement=pk,
                                traversal=cache.requirement(b).order)
                for b, p, pk in zip(part, procs, peaks)]
            ms = Mapping(wf, cluster, assignments).makespan()
            if best is None or ms < best:
                best = ms
    return best


class TestPartitionEnumeration:
    @pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15),
                                        (5, 52)])
    def test_counts_match_bell_numbers(self, n, bell):
        parts = list(_partitions(list(range(n)), n))
        assert len(parts) == bell
        keys = {tuple(sorted(tuple(sorted(b)) for b in p)) for p in parts}
        assert len(keys) == bell  # all distinct

    def test_max_blocks_caps_the_enumeration(self):
        parts = list(_partitions([0, 1, 2], 1))
        assert parts == [[[0, 1, 2]]]


class TestOptimality:
    def test_matches_naive_enumeration(self):
        rng = random.Random(7)
        cluster = _hetero_cluster()
        for _ in range(8):
            wf = _random_workflow(rng, rng.randint(1, 6))
            mapping, stats = exact_schedule(wf, cluster)
            mapping.validate()
            truth = _naive_optimum(wf, cluster)
            assert mapping.makespan() == pytest.approx(truth, abs=1e-9)
            assert stats["exact_partitions"] >= stats["exact_feasible"] > 0

    def test_never_beaten_by_the_heuristics(self):
        rng = random.Random(21)
        cluster = _hetero_cluster()
        for _ in range(5):
            wf = _random_workflow(rng, rng.randint(2, 7))
            optimum = exact_schedule(wf, cluster)[0].makespan()
            for algorithm in ("daghetpart", "daghetmem", "cpack"):
                result = solve(ScheduleRequest(workflow=wf, cluster=cluster,
                                               algorithm=algorithm))
                if result.success:
                    assert result.makespan >= optimum - 1e-9

    def test_empty_workflow(self):
        mapping, stats = exact_schedule(Workflow("empty"), _hetero_cluster())
        assert mapping.assignments == []
        assert stats["exact_partitions"] == 0


class TestGuards:
    def test_oversize_instances_are_refused(self):
        n = DEFAULT_MAX_TASKS + 1
        wf = Workflow(f"chain{n}")
        for i in range(n):
            wf.add_task(i, work=float(i + 1), memory=0.5)
            if i:
                wf.add_edge(i - 1, i, cost=1.0)
        with pytest.raises(ValueError, match="at most"):
            exact_schedule(wf, _hetero_cluster())
        # a raised ceiling admits the same instance
        mapping, _ = exact_schedule(
            wf, _hetero_cluster(), config=ExactConfig(max_tasks=n))
        mapping.validate()

    def test_non_uniform_bandwidth_is_refused(self):
        cluster = _hetero_cluster().with_bandwidth_model(
            LinkBandwidth({("p0", "p2"): 9.0}, default_beta=2.0))
        wf = _random_workflow(random.Random(1), 3)
        with pytest.raises(ValueError, match="uniform-bandwidth"):
            exact_schedule(wf, cluster)

    def test_bad_config_is_refused(self):
        with pytest.raises(ValueError, match="max_tasks"):
            ExactConfig(max_tasks=0)

    def test_infeasible_instance_raises_no_feasible_mapping(self):
        wf = Workflow("hungry")
        wf.add_task("a", work=1.0, memory=999.0)
        with pytest.raises(NoFeasibleMappingError) as err:
            exact_schedule(wf, _hetero_cluster())
        assert err.value.unplaced_tasks == 1


class TestRegistryIntegration:
    def test_solve_reports_search_counters(self):
        wf = _random_workflow(random.Random(5), 5)
        result = solve(ScheduleRequest(workflow=wf,
                                       cluster=_hetero_cluster(),
                                       algorithm="exact"))
        assert result.success
        assert result.algorithm == "Exact"
        assert result.extra["exact_partitions"] >= 1
        assert result.extra["exact_evaluations"] >= 1

    def test_infeasible_solve_returns_failure_envelope(self):
        wf = Workflow("hungry")
        wf.add_task("a", work=1.0, memory=999.0)
        result = solve(ScheduleRequest(workflow=wf,
                                       cluster=_hetero_cluster(),
                                       algorithm="exact"))
        assert not result.success
        assert result.failure.kind == "NoFeasibleMappingError"
