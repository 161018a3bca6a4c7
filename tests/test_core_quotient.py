"""Tests of the quotient graph: construction, merge/unmerge, cycles."""

import pytest

from repro.core.quotient import QuotientGraph
from repro.platform.processor import Processor
from repro.utils.errors import InvalidPartitionError


class TestConstruction:
    def test_from_partition_basic(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        assert len(q) == 4
        assert sum(len(b.tasks) for b in q.blocks.values()) == 9

    def test_from_partition_with_procs(self, fig1_workflow, fig1_partition):
        procs = [Processor(f"p{i}", 1, 100) for i in range(4)]
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition, procs)
        assert q.assigned_ids() == set(q.blocks)
        assert q.unassigned_ids() == set()

    def test_empty_block_rejected(self, fig1_workflow):
        with pytest.raises(InvalidPartitionError, match="empty"):
            QuotientGraph.from_partition(fig1_workflow, [set(range(1, 10)), set()])

    def test_overlap_rejected(self, fig1_workflow):
        with pytest.raises(InvalidPartitionError, match="overlap"):
            QuotientGraph.from_partition(fig1_workflow, [{1, 2}, {2, 3}, set(range(4, 10)) | {3}])

    def test_missing_tasks_rejected(self, fig1_workflow):
        with pytest.raises(InvalidPartitionError, match="not covered"):
            QuotientGraph.from_partition(fig1_workflow, [{1, 2, 3}])

    def test_block_of(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        b1 = q.block_of(1)
        assert q.block_of(4) == b1
        assert q.block_of(5) != b1

    def test_internal_edges_excluded(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        v1 = q.block_of(1)
        # edges 1->2, 2->4, etc. are internal; no self-loop
        assert v1 not in q.succ[v1]


class TestMergeUnmerge:
    def test_merge_combines_tasks_and_work(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        v1, v2 = q.block_of(1), q.block_of(5)
        merged, _ = q.merge(v1, v2)
        assert q.blocks[merged].tasks == {1, 2, 3, 4, 5}
        assert q.blocks[merged].work == 5.0
        assert len(q) == 3

    def test_merge_sums_edges_to_common_neighbor(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        v1, v2, v3 = q.block_of(1), q.block_of(5), q.block_of(6)
        merged, _ = q.merge(v1, v2)
        # V1->V3 cost 2 plus V2->V3 cost 1
        assert q.succ[merged][v3] == pytest.approx(3.0)

    def test_unmerge_restores_exactly(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        before_blocks = {bid: set(b.tasks) for bid, b in q.blocks.items()}
        before_succ = {bid: dict(nbrs) for bid, nbrs in q.succ.items()}
        v1, v2 = q.block_of(1), q.block_of(5)
        _, token = q.merge(v1, v2)
        q.unmerge(token)
        assert {bid: set(b.tasks) for bid, b in q.blocks.items()} == before_blocks
        assert {bid: dict(nbrs) for bid, nbrs in q.succ.items()} == before_succ
        # pred must mirror succ
        for bid, nbrs in q.succ.items():
            for x, c in nbrs.items():
                assert q.pred[x][bid] == c

    def test_merge_unmerge_leaves_the_reappend_order(self, fig1_workflow,
                                                     fig1_partition):
        """A merge and its unmerge re-append both vertices everywhere, in
        the order reappend leaves, and consume one block id."""
        def order(q):
            return (list(q.blocks), list(q.succ), list(q.pred),
                    [(v, list(adj)) for v, adj in q.succ.items()],
                    [(v, list(adj)) for v, adj in q.pred.items()])

        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                undone = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
                _, token = undone.merge(a, b)
                undone.unmerge(token)
                reappended = QuotientGraph.from_partition(fig1_workflow,
                                                          fig1_partition)
                reappended.reappend(a, b)
                assert order(undone) == order(reappended)
                assert next(undone._ids) == next(reappended._ids) == 5
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        v1, v2, v3, v4 = (q.block_of(u) for u in (1, 5, 6, 9))
        assert list(q.pred[v4]) == [v2, v3]
        q.reappend(v1, v2)
        assert list(q.blocks) == [v3, v4, v1, v2]
        assert list(q.pred[v4]) == [v3, v2]

    def test_nested_merge_unmerge(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        snapshot = {bid: set(b.tasks) for bid, b in q.blocks.items()}
        v1, v2, v3 = q.block_of(1), q.block_of(5), q.block_of(6)
        m1, t1 = q.merge(v1, v2)
        m2, t2 = q.merge(m1, v3)
        q.unmerge(t2)
        q.unmerge(t1)
        assert {bid: set(b.tasks) for bid, b in q.blocks.items()} == snapshot

    def test_merge_task_block_mapping_updates(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        v1, v2 = q.block_of(1), q.block_of(5)
        merged, token = q.merge(v1, v2)
        assert q.block_of(5) == merged
        q.unmerge(token)
        assert q.block_of(5) == v2

    def test_merge_self_rejected(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        with pytest.raises(ValueError):
            q.merge(q.block_of(1), q.block_of(1))


class TestCycles:
    def test_acyclic_partition_detected(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        assert q.is_acyclic()
        assert q.find_cycle() is None

    def test_merge_creating_cycle_detected(self, fig1_workflow):
        """The paper's example: blocks {4,9} create a 2-cycle with {6,7,8}."""
        q = QuotientGraph.from_partition(
            fig1_workflow, [{1, 2, 3}, {4, 9}, {5}, {6, 7, 8}])
        assert not q.is_acyclic()
        cycle = q.find_cycle()
        assert cycle is not None and len(cycle) == 2

    def test_topological_order_none_when_cyclic(self, fig1_workflow):
        q = QuotientGraph.from_partition(
            fig1_workflow, [{1, 2, 3}, {4, 9}, {5}, {6, 7, 8}])
        assert q.topological_order() is None

    def test_cycle_repair_by_third_merge(self, fig1_workflow):
        """Merging the third vertex resolves a 2-cycle (Fig. 2)."""
        q = QuotientGraph.from_partition(
            fig1_workflow, [{1, 2, 3}, {4, 9}, {5}, {6, 7, 8}])
        b49 = q.block_of(4)
        b678 = q.block_of(6)
        merged, _ = q.merge(b49, b678)
        assert q.is_acyclic()


class TestHelpers:
    def test_neighbors(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        v2 = q.block_of(5)
        nbrs = set(q.neighbors(v2))
        assert nbrs == {q.block_of(1), q.block_of(6), q.block_of(9)}

    def test_used_processors(self, fig1_workflow, fig1_partition):
        procs = [Processor(f"p{i}", 1, 100) for i in range(4)]
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition, procs)
        assert q.used_processors() == {"p0", "p1", "p2", "p3"}

    def test_partition_blocks_roundtrip(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        blocks = q.partition_blocks()
        assert sorted(map(sorted, blocks)) == sorted(map(sorted, fig1_partition))
