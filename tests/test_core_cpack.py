"""CPack: the greedy critical-path packer (satellite of the kernel PR)."""

from __future__ import annotations

import pytest

from repro.core.cpack import critical_path_pack, rank_order, upward_ranks
from repro.experiments.instances import scaled_cluster_for
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster
from repro.utils.errors import NoFeasibleMappingError
from repro.workflow.graph import Workflow

FEASIBLE_CORPUS = [
    ("blast", 24), ("blast", 60), ("blast", 120),
    ("genome", 24), ("genome", 120),
    ("bwa", 60),
    ("epigenomics", 24), ("epigenomics", 120),
    ("montage", 60), ("montage", 120),
    ("seismology", 60),
    ("soykb", 24), ("soykb", 120),
]


def _instance(family: str, n: int):
    wf = generate_workflow(family, n, seed=0)
    return wf, scaled_cluster_for(wf, default_cluster())


class TestRankOrder:
    def test_rank_order_is_topological(self):
        wf = generate_workflow("genome", 60, seed=1)
        order = rank_order(wf, upward_ranks(wf, 1.0, 1.0))
        pos = {u: i for i, u in enumerate(order)}
        assert len(order) == wf.n_tasks
        for u, v, _ in wf.edges():
            assert pos[u] < pos[v]

    def test_ranks_decrease_along_edges(self):
        wf = generate_workflow("blast", 40, seed=2)
        ranks = upward_ranks(wf, 2.0, 1.0)
        for u, v, _ in wf.edges():
            assert ranks[u] > ranks[v]


class TestCriticalPathPack:
    @pytest.mark.parametrize("family,n", FEASIBLE_CORPUS)
    def test_feasible_and_valid_across_corpus(self, family, n):
        wf, cluster = _instance(family, n)
        mapping = critical_path_pack(wf, cluster)
        mapping.validate()  # block fit, traversal peaks, full coverage
        assert mapping.algorithm == "CPack"
        assert mapping.makespan() > 0
        covered = set()
        for a in mapping.assignments:
            assert not (covered & a.tasks)
            covered |= a.tasks
        assert covered == set(wf.tasks())

    def test_deterministic(self):
        wf, cluster = _instance("soykb", 60)
        a = critical_path_pack(wf, cluster)
        b = critical_path_pack(wf, cluster)
        assert a.makespan() == b.makespan()
        assert [x.tasks for x in a.assignments] == \
            [x.tasks for x in b.assignments]
        assert [x.processor.name for x in a.assignments] == \
            [x.processor.name for x in b.assignments]

    def test_infeasible_instance_raises(self):
        """epigenomics-60 cannot be packed; the contract is a clean raise
        (the façade reports it as a structured failure)."""
        wf, cluster = _instance("epigenomics", 60)
        with pytest.raises(NoFeasibleMappingError):
            critical_path_pack(wf, cluster)

    def test_oversized_task_raises(self):
        wf = Workflow()
        wf.add_task("huge", work=1.0, memory=1e9)
        with pytest.raises(NoFeasibleMappingError):
            critical_path_pack(wf, default_cluster())

    def test_single_task(self):
        wf = Workflow()
        wf.add_task("only", work=5.0, memory=2.0)
        mapping = critical_path_pack(wf, default_cluster())
        mapping.validate()
        assert len(mapping.assignments) == 1
        # the packer puts the lone block on the fastest adequate processor
        fastest = default_cluster().by_speed_desc()[0]
        assert mapping.assignments[0].processor.speed == fastest.speed

    def test_empty_workflow(self):
        mapping = critical_path_pack(Workflow(), default_cluster())
        assert mapping.assignments == []
        assert mapping.makespan() == 0.0

    def test_disconnected_components(self):
        wf = Workflow()
        for i in range(6):
            wf.add_task(f"a{i}", work=10.0, memory=1.0)
        wf.add_edge("a0", "a1", 2.0)
        wf.add_edge("a2", "a3", 2.0)
        # a4, a5 stay isolated
        mapping = critical_path_pack(wf, default_cluster())
        mapping.validate()
        assert {u for a in mapping.assignments for u in a.tasks} == \
            set(wf.tasks())


class TestRegistration:
    def test_registered_as_memory_packing(self):
        from repro.api import available_algorithms, get_algorithm
        assert "cpack" in available_algorithms()
        spec = get_algorithm("cpack")
        assert "memory-packing" in spec.capabilities

    def test_runs_through_the_facade(self):
        from repro.api import ScheduleRequest, solve
        wf, cluster = _instance("blast", 24)
        result = solve(ScheduleRequest(
            workflow=wf, cluster=cluster, algorithm="cpack",
            scale_memory=False))
        assert result.success
        assert result.makespan > 0
