"""Tests of Step 3 (MergeUnassignedToAssigned / FindMSOptMerge)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.makespan import makespan
from repro.core.merging import (
    _on_cycle,
    find_ms_opt_merge,
    merge_unassigned_to_assigned,
)
from repro.core.quotient import QuotientGraph
from repro.memdag.requirement import RequirementCache
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.workflow.graph import Workflow


def _chain_quotient(n_blocks=4, assigned_mask=None, memory=100.0):
    """Chain workflow split into singleton blocks, some assigned."""
    wf = Workflow()
    for i in range(n_blocks):
        wf.add_task(i, work=float(i + 1), memory=1.0)
        if i:
            wf.add_edge(i - 1, i, 1.0)
    procs = [Processor(f"p{i}", 1.0, memory) for i in range(n_blocks)]
    cluster = Cluster(procs)
    mask = assigned_mask or [True] * n_blocks
    q = QuotientGraph.from_partition(
        wf, [{i} for i in range(n_blocks)],
        [procs[i] if mask[i] else None for i in range(n_blocks)])
    return wf, cluster, q


class TestFindMsOptMerge:
    def test_finds_feasible_neighbor(self):
        wf, cluster, q = _chain_quotient(3, [True, False, True])
        cache = RequirementCache(wf)
        nu = q.block_of(1)
        mu, partner, third = find_ms_opt_merge(q, nu, q.assigned_ids(), cluster, cache)
        assert partner in {q.block_of(0), q.block_of(2)}
        assert third is None
        # graph unchanged
        assert len(q) == 3
        assert q.blocks[nu].proc is None

    def test_respects_memory(self):
        # a fans out to c1, c2: merging a with either child retains the
        # other child's input file, pushing the union peak over memory
        wf = Workflow()
        wf.add_task("a", work=1.0, memory=1.0)
        wf.add_task("c1", work=1.0, memory=3.0)
        wf.add_task("c2", work=1.0, memory=3.0)
        wf.add_edge("a", "c1", 4.0)
        wf.add_edge("a", "c2", 4.0)
        p0, p1 = Processor("p0", 1.0, 10.0), Processor("p1", 1.0, 10.0)
        cluster = Cluster([p0, p1])
        q = QuotientGraph.from_partition(
            wf, [{"a"}, {"c1"}, {"c2"}], [None, p0, p1])
        cache = RequirementCache(wf)
        # singletons fit (r(a)=9, r(c)=7) but any union peaks at 11 > 10
        nu = q.block_of("a")
        mu, partner, third = find_ms_opt_merge(q, nu, q.assigned_ids(), cluster, cache)
        assert partner is None

    def test_candidate_restriction(self):
        wf, cluster, q = _chain_quotient(3, [True, False, True])
        cache = RequirementCache(wf)
        nu = q.block_of(1)
        only_right = {q.block_of(2)}
        _, partner, _ = find_ms_opt_merge(q, nu, only_right, cluster, cache)
        assert partner == q.block_of(2)

    def test_two_cycle_repaired_by_third_merge(self, fig1_workflow):
        """Merging across a diamond creates a 2-cycle; the third vertex heals it."""
        procs = [Processor(f"p{i}", 1.0, 1e9) for i in range(4)]
        cluster = Cluster(procs)
        # blocks: {1,2,3}, {4,9} unassigned, {5}, {6,7,8}; merging {4,9}
        # with {6,7,8} is feasible only together with the 2-cycle partner
        q = QuotientGraph.from_partition(
            fig1_workflow,
            [{1, 2, 3}, {4}, {5}, {6, 7, 8}, {9}],
            [procs[0], None, procs[1], procs[2], procs[3]])
        cache = RequirementCache(fig1_workflow)
        nu = q.block_of(4)
        mu, partner, third = find_ms_opt_merge(
            q, nu, q.assigned_ids(), cluster, cache)
        assert partner is not None
        # pure-merge result must leave the graph acyclic after execution
        assert len(q) == 5  # untouched

    def test_picks_makespan_minimizing_partner(self):
        # diamond: s -> {x, y} -> t ; x on slow proc, y on fast proc
        wf = Workflow()
        wf.add_task("s", work=1, memory=1)
        wf.add_task("x", work=10, memory=1)
        wf.add_task("y", work=10, memory=1)
        wf.add_task("t", work=1, memory=1)
        wf.add_edge("s", "x", 1)
        wf.add_edge("s", "y", 1)
        wf.add_edge("x", "t", 1)
        wf.add_edge("y", "t", 1)
        slow = Processor("slow", 1.0, 1e9)
        fast = Processor("fast", 10.0, 1e9)
        other = Processor("o", 5.0, 1e9)
        cluster = Cluster([slow, fast, other])
        q = QuotientGraph.from_partition(
            wf, [{"s"}, {"x"}, {"y"}, {"t"}], [None, slow, fast, other])
        cache = RequirementCache(wf)
        nu = q.block_of("s")
        _, partner, _ = find_ms_opt_merge(q, nu, q.assigned_ids(), cluster, cache)
        # merging s into the fast block is better than the slow one
        assert partner == q.block_of("y")


class TestMergeUnassignedToAssigned:
    def test_no_unassigned_is_trivial_success(self):
        wf, cluster, q = _chain_quotient(3)
        cache = RequirementCache(wf)
        assert merge_unassigned_to_assigned(q, cluster, cache)

    def test_all_become_assigned(self):
        wf, cluster, q = _chain_quotient(5, [True, False, False, True, False])
        cache = RequirementCache(wf)
        assert merge_unassigned_to_assigned(q, cluster, cache)
        assert not q.unassigned_ids()
        assert q.is_acyclic()

    def test_deep_unassigned_cluster_is_absorbed(self):
        """A frontier must propagate through many unassigned fragments."""
        wf, cluster, q = _chain_quotient(8, [True] + [False] * 7)
        cache = RequirementCache(wf)
        assert merge_unassigned_to_assigned(q, cluster, cache)
        assert not q.unassigned_ids()

    @staticmethod
    def _fan_instance(extra_procs=()):
        """a (r=10) fans to s1, s2 on 7-memory processors; a is unassigned.

        Merging a anywhere peaks at 10 > 7, so only a free processor of
        at least 10 memory can save the mapping.
        """
        wf = Workflow()
        wf.add_task("a", work=1.0, memory=2.0)
        wf.add_task("s1", work=1.0, memory=2.0)
        wf.add_task("s2", work=1.0, memory=2.0)
        wf.add_edge("a", "s1", 4.0)
        wf.add_edge("a", "s2", 4.0)
        p0, p1 = Processor("p0", 1.0, 7.0), Processor("p1", 1.0, 7.0)
        procs = [p0, p1, *extra_procs]
        cluster = Cluster(procs)
        q = QuotientGraph.from_partition(
            wf, [{"a"}, {"s1"}, {"s2"}], [None, p0, p1])
        return wf, cluster, q

    def test_memory_infeasible_returns_false(self):
        wf, cluster, q = self._fan_instance()
        cache = RequirementCache(wf)
        assert not merge_unassigned_to_assigned(q, cluster, cache)

    def test_free_processor_fallback(self):
        """A fragment with no feasible merge gets its own free processor."""
        wf, cluster, q = self._fan_instance(
            extra_procs=[Processor("spare", 1.0, 12.0)])
        cache = RequirementCache(wf)
        assert merge_unassigned_to_assigned(q, cluster, cache)
        assert q.blocks[q.block_of("a")].proc.name == "spare"

    def test_result_respects_memory_everywhere(self):
        from repro.core.assignment import biggest_assign
        from repro.experiments.instances import scaled_cluster_for
        from repro.generators.families import generate_workflow
        from repro.partition.api import acyclic_partition
        from repro.platform.presets import default_cluster
        wf = generate_workflow("genome", 120, seed=9)
        cluster = scaled_cluster_for(wf, default_cluster())
        cache = RequirementCache(wf)
        partition = acyclic_partition(wf, 16)
        state = biggest_assign(wf, cluster, partition, cache=cache)
        q = QuotientGraph.from_partition(
            wf, [state.blocks[b] for b in state.blocks],
            [state.assigned.get(b) for b in state.blocks])
        if merge_unassigned_to_assigned(q, cluster, cache):
            for blk in q.blocks.values():
                assert blk.proc is not None
                assert cache.peak(blk.tasks) <= blk.proc.memory + 1e-9
            assert q.is_acyclic()


@st.composite
def acyclic_quotient_and_pair(draw):
    """A random DAG cut into topological runs (an acyclic quotient) and
    two of its vertices to merge."""
    n = draw(st.integers(min_value=3, max_value=12))
    wf = Workflow("random")
    for u in range(n):
        wf.add_task(u)
    for v in range(n):
        for u in range(v):
            if draw(st.integers(0, 2)) == 0:
                wf.add_edge(u, v, 1.0)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=2)))
    bounds = [0, *cuts, n]
    q = QuotientGraph.from_partition(
        wf, [set(range(a, b)) for a, b in zip(bounds, bounds[1:])])
    a, b = draw(st.lists(st.sampled_from(sorted(q.blocks)), min_size=2,
                         max_size=2, unique=True))
    return q, a, b


class TestCycleCheck:
    @settings(max_examples=300, deadline=None)
    @given(case=acyclic_quotient_and_pair())
    def test_local_check_matches_whole_graph_search(self, case):
        """Merging two vertices of an acyclic quotient closes a cycle iff
        the merged vertex lies on one, also after absorbing the third
        vertex of a 2-cycle."""
        q, a, b = case
        merged, _ = q.merge(a, b)
        cycle = q.find_cycle()
        assert _on_cycle(q, merged) is (cycle is not None)
        if cycle is not None and len(cycle) == 2:
            other = cycle[0] if cycle[0] != merged else cycle[1]
            merged2, _ = q.merge(merged, other)
            assert _on_cycle(q, merged2) is (q.find_cycle() is not None)
