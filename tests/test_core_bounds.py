"""Tests of the makespan lower bounds."""

import pytest

from repro.core.baseline import dag_het_mem
from repro.core.bounds import (
    bottleneck_task_bound,
    critical_path_bound,
    makespan_lower_bound,
    optimality_gap,
    oversized_tasks,
    work_bound,
)
from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
from repro.experiments.instances import scaled_cluster_for
from repro.generators.families import generate_workflow
from repro.platform.cluster import Cluster
from repro.platform.presets import default_cluster
from repro.platform.processor import Processor
from repro.workflow.graph import Workflow


class TestIndividualBounds:
    def test_work_bound(self, chain_workflow):
        cluster = Cluster([Processor("a", 2, 1e9), Processor("b", 3, 1e9)])
        assert work_bound(chain_workflow, cluster) == pytest.approx(10.0 / 5.0)

    def test_critical_path_bound_excludes_edges(self, chain_workflow):
        cluster = Cluster([Processor("a", 2, 1e9)])
        # path work = 10, no edge costs, speed 2
        assert critical_path_bound(chain_workflow, cluster) == pytest.approx(5.0)

    def test_bottleneck_respects_memory(self):
        wf = Workflow()
        wf.add_task("big", work=100.0, memory=50.0)
        fast_small = Processor("fast", 10.0, 10.0)  # cannot hold the task
        slow_big = Processor("slow", 1.0, 100.0)
        cluster = Cluster([fast_small, slow_big])
        # the task must run on the slow node: bound = 100/1
        assert bottleneck_task_bound(wf, cluster) == pytest.approx(100.0)

    def test_bottleneck_infinite_when_task_fits_nowhere(self):
        wf = Workflow()
        wf.add_task("huge", work=1.0, memory=1e6)
        cluster = Cluster([Processor("p", 1.0, 10.0)])
        assert bottleneck_task_bound(wf, cluster) == float("inf")



class TestBoundsAreValid:
    """No heuristic may ever beat a lower bound."""

    @pytest.mark.parametrize("family", ["blast", "genome", "soykb", "montage"])
    def test_both_heuristics_respect_bounds(self, family):
        from repro.utils.errors import NoFeasibleMappingError
        wf = generate_workflow(family, 80, seed=29)
        cluster = scaled_cluster_for(wf, default_cluster())
        lb = makespan_lower_bound(wf, cluster)
        checked = 0
        for algorithm in (dag_het_mem,
                          lambda w, c: dag_het_part_sweep(
                              w, c, DagHetPartConfig(
                                  k_prime_strategy="doubling")).mapping):
            try:
                mapping = algorithm(wf, cluster)
            except NoFeasibleMappingError:
                continue  # legitimate outcome on memory-tight instances
            assert mapping.makespan() >= lb - 1e-9
            checked += 1
        assert checked >= 1

    def test_optimality_gap_at_least_one(self):
        wf = generate_workflow("bwa", 60, seed=31)
        cluster = scaled_cluster_for(wf, default_cluster())
        mapping = dag_het_part_sweep(
            wf, cluster, DagHetPartConfig(k_prime_strategy="doubling")).mapping
        assert optimality_gap(mapping) >= 1.0 - 1e-9

    def test_single_task_gap_is_exact(self):
        wf = Workflow()
        wf.add_task("only", work=10.0, memory=1.0)
        proc = Processor("p", 2.0, 100.0)
        cluster = Cluster([proc])
        mapping = dag_het_mem(wf, cluster)
        assert optimality_gap(mapping) == pytest.approx(1.0)


class TestOversizedTasks:
    def _wf(self):
        wf = Workflow()
        wf.add_task("a", memory=4.0)
        wf.add_task("b", memory=1.0)
        wf.add_edge("a", "b", 2.0)  # r_a = 6, r_b = 3
        return wf

    def test_lists_exactly_the_tasks_no_processor_holds(self):
        cluster = Cluster([Processor("p", 1.0, 5.0), Processor("q", 2.0, 2.0)])
        assert oversized_tasks(self._wf(), cluster) == ["a"]

    def test_a_task_that_fits_somewhere_is_not_listed(self):
        cluster = Cluster([Processor("p", 1.0, 6.0), Processor("q", 2.0, 1.0)])
        assert oversized_tasks(self._wf(), cluster) == []

    def test_rounding_slack_is_not_a_certificate(self):
        cluster = Cluster([Processor("p", 1.0, 6.0 - 1e-9)])
        assert oversized_tasks(self._wf(), cluster) == []

    def test_empty_workflow(self):
        assert oversized_tasks(Workflow(), Cluster([Processor("p", 1.0, 0.1)])) == []
