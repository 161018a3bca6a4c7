"""Makespan engine tests, anchored on the paper's worked example (Fig. 1)."""

import importlib

import pytest

from repro.core.makespan import bottom_weights, critical_path, link_rule, makespan
from repro.core.quotient import QuotientGraph
from repro.platform.bandwidth import LinkBandwidth
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.utils.errors import CyclicWorkflowError
from repro.workflow.graph import Workflow


class TestFig1GoldenExample:
    """Section 3.3's worked example: l4=1, l3=5, l2=7, l1=12."""

    def test_quotient_weights(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        works = sorted(blk.work for blk in q.blocks.values())
        assert works == [1.0, 1.0, 3.0, 4.0]

    def test_quotient_edge_costs(self, fig1_workflow, fig1_partition):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        ids = {i: bid for i, bid in enumerate(q.blocks)}
        # all edge costs are 1 except V1 -> V3 which sums two task edges
        costs = sorted(c for nbrs in q.succ.values() for c in nbrs.values())
        assert costs == [1.0, 1.0, 1.0, 1.0, 2.0]

    def test_bottom_weights(self, fig1_workflow, fig1_partition, unit_cluster):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        l = bottom_weights(q, unit_cluster)
        # block ids follow partition order: V1, V2, V3, V4
        v1, v2, v3, v4 = list(q.blocks)
        assert l[v4] == pytest.approx(1.0)
        assert l[v3] == pytest.approx(5.0)
        assert l[v2] == pytest.approx(7.0)
        assert l[v1] == pytest.approx(12.0)

    def test_makespan_is_12(self, fig1_workflow, fig1_partition, unit_cluster):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        assert makespan(q, unit_cluster) == pytest.approx(12.0)

    def test_critical_path_starts_at_source_block(self, fig1_workflow,
                                                  fig1_partition, unit_cluster):
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        path = critical_path(q, unit_cluster)
        v1, v2, v3, v4 = list(q.blocks)
        # l1 = 4 + (1 + l2): the max is attained through V2
        assert path[0] == v1
        assert path[1] == v2
        assert path[-1] == v4

    def test_merging_4_and_9_creates_cycle(self, fig1_workflow):
        """The paper: merging tasks 4 and 9 yields a cyclic quotient."""
        partition = [{1, 2, 3}, {4, 9}, {5}, {6, 7, 8}]
        q = QuotientGraph.from_partition(fig1_workflow, partition)
        assert not q.is_acyclic()
        with pytest.raises(CyclicWorkflowError):
            makespan(q, Cluster([Processor("p", 1, 1)], name="c1"))


class TestMakespanProperties:
    def test_single_block_is_total_work_over_speed(self, chain_workflow):
        cluster = Cluster([Processor("p", speed=4.0, memory=1e9)])
        q = QuotientGraph.from_partition(
            chain_workflow, [set("abcd")], [cluster.processors[0]])
        assert makespan(q, cluster) == pytest.approx(chain_workflow.total_work() / 4.0)

    def test_unassigned_blocks_use_speed_one(self, chain_workflow, unit_cluster):
        q = QuotientGraph.from_partition(chain_workflow, [set("abcd")])
        assert makespan(q, unit_cluster) == pytest.approx(chain_workflow.total_work())

    def test_default_speed_override(self, chain_workflow, unit_cluster):
        q = QuotientGraph.from_partition(chain_workflow, [set("abcd")])
        fast = makespan(q, unit_cluster, default_speed=10.0)
        assert fast == pytest.approx(chain_workflow.total_work() / 10.0)

    def test_bandwidth_scales_communication(self, chain_workflow):
        p1, p2 = Processor("p1", 1, 1e9), Processor("p2", 1, 1e9)
        blocks = [{"a", "b"}, {"c", "d"}]
        for beta, expected_comm in [(1.0, 1.0), (0.5, 2.0), (2.0, 0.5)]:
            cluster = Cluster([p1, p2], bandwidth=beta)
            q = QuotientGraph.from_partition(chain_workflow, blocks, [p1, p2])
            # l(second) = 3+4 = 7; l(first) = 1+2 + c(b,c)/beta + 7
            assert makespan(q, cluster) == pytest.approx(10.0 + expected_comm)

    def test_faster_processors_never_hurt(self, fig1_workflow, fig1_partition):
        slow = [Processor(f"s{i}", 1.0, 1e9) for i in range(4)]
        fast = [Processor(f"f{i}", 2.0, 1e9) for i in range(4)]
        q_slow = QuotientGraph.from_partition(fig1_workflow, fig1_partition, slow)
        q_fast = QuotientGraph.from_partition(fig1_workflow, fig1_partition, fast)
        cs = Cluster(slow)
        cf = Cluster(fast)
        assert makespan(q_fast, cf) <= makespan(q_slow, cs)

    def test_empty_quotient(self, unit_cluster):
        from repro.workflow.graph import Workflow
        q = QuotientGraph(Workflow("empty"))
        assert makespan(q, unit_cluster) == 0.0

    def test_parallel_blocks_take_max_not_sum(self, fork_workflow, unit_cluster):
        blocks = [{"root"}] + [{f"leaf{i}"} for i in range(6)]
        q = QuotientGraph.from_partition(fork_workflow, blocks)
        # l(root) = 1 + max_i (1 + w_leaf_i) = 1 + 1 + 6
        assert makespan(q, unit_cluster) == pytest.approx(8.0)


class TestBottomWeightSemantics:
    """The reference loop of Eq. (1): errors, fallbacks, corner cases."""

    def test_cyclic_quotient_raises(self, unit_cluster):
        wf = Workflow()
        wf.add_edge("a", "b", 1.0)
        wf.add_edge("c", "d", 1.0)
        q = QuotientGraph.from_partition(wf, [{"a", "d"}, {"b", "c"}])
        with pytest.raises(CyclicWorkflowError):
            bottom_weights(q, unit_cluster)

    def test_unassigned_block_gets_the_default_speed(self, chain_workflow,
                                                      unit_cluster):
        fast = Processor("fast", speed=4.0, memory=1e9)
        q = QuotientGraph.from_partition(
            chain_workflow, [{"a", "b"}, {"c", "d"}], [fast, None])
        first, second = list(q.blocks)
        l = bottom_weights(q, unit_cluster, default_speed=2.5)
        # exact: the same float operations in the same order as Eq. (1)
        assert l[second] == 7.0 / 2.5
        assert l[first] == 3.0 / 4.0 + (1.0 / 1.0 + 7.0 / 2.5)

    def test_empty_and_single_block(self, chain_workflow, unit_cluster):
        assert bottom_weights(QuotientGraph(Workflow("empty")),
                              unit_cluster) == {}
        slow = Processor("slow", speed=3.0, memory=1e9)
        q = QuotientGraph.from_partition(chain_workflow, [set("abcd")], [slow])
        (bid,) = q.blocks
        assert bottom_weights(q, unit_cluster) == {bid: 10.0 / 3.0}

    def test_each_pass_is_counted(self, fig1_workflow, fig1_partition,
                                  unit_cluster):
        module = importlib.import_module("repro.core.makespan")
        q = QuotientGraph.from_partition(fig1_workflow, fig1_partition)
        before = module.FULL_PASSES
        bottom_weights(q, unit_cluster)
        makespan(q, unit_cluster)
        assert module.FULL_PASSES == before + 2


class TestCriticalPathReconstruction:
    """Regressions for the argmax-child path walk.

    The seed re-matched ``l[current] - own`` against each child within a
    float tolerance and silently ``break``-ed when nothing matched, so a
    vertex whose own time dwarfs its edge terms truncated the path; it
    also priced edges with ``cluster.link_bandwidth`` regardless of the
    uniform-β shortcut :func:`bottom_weights` uses.
    """

    def test_huge_own_time_does_not_truncate(self):
        # own(a) = 1e16 absorbs the child term in floating point:
        # (own + best) - own == 0.0, which no child ever matched
        wf = Workflow("huge")
        wf.add_task("a", work=1e16, memory=1.0)
        wf.add_task("b", work=1.0, memory=1.0)
        wf.add_task("c", work=1.0, memory=1.0)
        wf.add_edge("a", "b", 1.0)
        wf.add_edge("b", "c", 1.0)
        procs = [Processor(f"p{i}", 1.0, 10.0) for i in range(3)]
        cluster = Cluster(procs)
        q = QuotientGraph.from_partition(wf, [{"a"}, {"b"}, {"c"}], procs)
        path = critical_path(q, cluster)
        assert len(path) == 3  # reaches the sink
        assert not q.succ[path[-1]]

    def test_large_values_pick_the_argmax_child_not_a_near_match(self):
        # with l ~ 1e12 the seed's relative tolerance admitted children
        # thousands of units away from the max; the walk must take the
        # argmax child exactly
        wf = Workflow("near-miss")
        wf.add_task("root", work=1e12, memory=1.0)
        wf.add_task("best", work=2000.0, memory=1.0)
        wf.add_task("near", work=1500.0, memory=1.0)
        wf.add_edge("root", "near", 1.0)  # adjacency order lists "near" first
        wf.add_edge("root", "best", 1.0)
        procs = [Processor(f"p{i}", 1.0, 10.0) for i in range(3)]
        cluster = Cluster(procs)
        q = QuotientGraph.from_partition(
            wf, [{"root"}, {"best"}, {"near"}], procs)
        path = critical_path(q, cluster)
        assert q.blocks[path[1]].tasks == {"best"}

    def test_heterogeneous_links_with_unassigned_endpoint(self):
        """Weights and path must share one edge-cost rule (Sec. 3.3)."""
        wf = Workflow("hetlinks")
        for name, work in [("a", 4.0), ("b", 1.0), ("c", 2.0)]:
            wf.add_task(name, work=work, memory=1.0)
        wf.add_edge("a", "b", 6.0)
        wf.add_edge("a", "c", 6.0)
        pa, pb = Processor("pa", 1.0, 10.0), Processor("pb", 1.0, 10.0)
        model = LinkBandwidth({("pa", "pb"): 3.0}, default_beta=1.0)
        cluster = Cluster([pa, pb], bandwidth_model=model)
        # c unassigned: its link falls back to the model's default (1.0),
        # so the path must go through c (6/1 + 2 > 6/3 + 1)
        q = QuotientGraph.from_partition(wf, [{"a"}, {"b"}, {"c"}],
                                         [pa, pb, None])
        l = bottom_weights(q, cluster)
        path = critical_path(q, cluster)
        a, b, c = list(q.blocks)
        assert l[a] == pytest.approx(4.0 + 6.0 / 1.0 + 2.0)
        assert path == [a, c]
        # the start vertex is the bottom-weight argmax, the walk follows
        # the same link rule bottom_weights used
        assert l[path[0]] == max(l.values())

    def test_path_realizes_the_makespan_on_every_step(self):
        """Invariant: l decreases along the path exactly by own + edge."""
        from repro.generators.families import generate_workflow
        from repro.partition.api import acyclic_partition
        wf = generate_workflow("genome", 60, seed=4)
        partition = acyclic_partition(wf, 6)
        procs = [Processor(f"p{i}", 1.0 + i, 1e9) for i in range(6)]
        cluster = Cluster(procs)
        q = QuotientGraph.from_partition(wf, partition, procs)
        l = bottom_weights(q, cluster)
        link_of = link_rule(cluster)
        path = critical_path(q, cluster)
        assert not q.succ[path[-1]]
        for u, v in zip(path, path[1:]):
            own = q.blocks[u].work / q.blocks[u].proc.speed
            edge = q.succ[u][v] / link_of(q.blocks[u].proc, q.blocks[v].proc)
            assert l[u] == pytest.approx(own + edge + l[v])
