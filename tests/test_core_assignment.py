"""Tests of Step 2 (BiggestAssign / FitBlock)."""

import pytest

from repro.core.assignment import AssignmentState, biggest_assign
from repro.generators.families import generate_workflow
from repro.memdag.requirement import RequirementCache
from repro.partition.api import acyclic_partition
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.workflow.graph import Workflow


def _covered(state):
    """Every task some block of ``state`` holds."""
    return set().union(*state.blocks.values())


def _simple_chain(n, mem=4.0, cost=1.0):
    wf = Workflow()
    for i in range(n):
        wf.add_task(i, work=1.0, memory=mem)
        if i:
            wf.add_edge(i - 1, i, cost)
    return wf


class TestBasicAssignment:
    def test_all_blocks_fit(self, fig1_workflow, fig1_partition, unit_cluster):
        state = biggest_assign(fig1_workflow, unit_cluster, fig1_partition)
        assert len(state.assigned) == 4
        assert state.unassigned == []
        assert _covered(state) == set(fig1_workflow.tasks())

    def test_biggest_block_gets_biggest_memory(self, fig1_workflow, fig1_partition):
        procs = [Processor("m100", 1.0, 100.0), Processor("m50", 1.0, 50.0),
                 Processor("m25", 1.0, 25.0), Processor("m12", 1.0, 12.0)]
        cluster = Cluster(procs)
        cache = RequirementCache(fig1_workflow)
        state = biggest_assign(fig1_workflow, cluster, fig1_partition, cache=cache)
        # the block with the largest requirement must sit on m100
        by_proc = {p.name: bid for bid, p in state.assigned.items()}
        reqs = {bid: cache.peak(tasks) for bid, tasks in state.blocks.items()}
        assert reqs[by_proc["m100"]] == max(reqs[b] for b in state.assigned)

    def test_oversized_block_is_split(self):
        # fan-in workload accumulates memory: the whole-graph requirement
        # far exceeds one processor, single tasks fit comfortably
        wf = Workflow()
        wf.add_task("sink", work=1.0, memory=1.0)
        for i in range(8):
            wf.add_task(i, work=1.0, memory=1.0)
            if i:
                wf.add_edge(i - 1, i, 0.5)
            wf.add_edge(i, "sink", 3.0)
        procs = [Processor(f"p{j}", 1.0, 12.0) for j in range(8)]
        state = biggest_assign(wf, Cluster(procs), [set(wf.tasks())])
        assert state.n_splits >= 1
        assert len(state.assigned) >= 2
        assert _covered(state) == set(wf.tasks())

    def test_assigned_blocks_fit_their_processors(self):
        wf = generate_workflow("bwa", 100, seed=2)
        from repro.experiments.instances import scaled_cluster_for
        from repro.platform.presets import default_cluster
        cluster = scaled_cluster_for(wf, default_cluster())
        partition = acyclic_partition(wf, 12)
        cache = RequirementCache(wf)
        state = biggest_assign(wf, cluster, partition, cache=cache)
        for bid, proc in state.assigned.items():
            assert cache.peak(state.blocks[bid]) <= proc.memory + 1e-9

    def test_distinct_processors(self):
        wf = generate_workflow("blast", 60, seed=4)
        from repro.experiments.instances import scaled_cluster_for
        from repro.platform.presets import default_cluster
        cluster = scaled_cluster_for(wf, default_cluster())
        partition = acyclic_partition(wf, 10)
        state = biggest_assign(wf, cluster, partition)
        names = [p.name for p in state.assigned.values()]
        assert len(names) == len(set(names))


class TestLeftoverBlocks:
    def test_more_blocks_than_processors(self):
        wf = _simple_chain(12, mem=2.0)
        partition = [{3 * i, 3 * i + 1, 3 * i + 2} for i in range(4)]
        cluster = Cluster([Processor("p0", 1.0, 100.0), Processor("p1", 1.0, 100.0)])
        state = biggest_assign(wf, cluster, partition)
        assert len(state.assigned) == 2
        assert len(state.unassigned) >= 2
        assert _covered(state) == set(wf.tasks())

    def test_leftovers_partitioned_to_smallest_memory(self):
        wf = _simple_chain(12, mem=2.0)
        partition = [set(range(6)), set(range(6, 12))]
        # one big processor gets one block; leftover must be shattered to <= 5.5
        cluster = Cluster([Processor("big", 1.0, 100.0)])
        cache = RequirementCache(wf)
        state = biggest_assign(wf, cluster, partition, cache=cache)
        p_min = cluster.smallest_memory_processor()
        for bid in state.unassigned:
            if bid in state.oversized:
                continue
            assert cache.peak(state.blocks[bid]) <= p_min.memory + 1e-9

    def test_unsplittable_oversized_reported(self):
        wf = Workflow()
        wf.add_task("huge", work=1.0, memory=1000.0)
        wf.add_task("ok", work=1.0, memory=1.0)
        wf.add_edge("huge", "ok", 1.0)
        cluster = Cluster([Processor("p", 1.0, 10.0)])
        state = biggest_assign(wf, cluster, [{"huge"}, {"ok"}])
        assert state.oversized
        assert set(state.unassigned) >= set(state.oversized)
        assert _covered(state) == set(wf.tasks())


class TestAssignmentState:
    def test_next_id_monotonic(self):
        state = AssignmentState()
        assert state.next_id() == 0
        assert state.next_id() == 1

