"""Unit tests for the Workflow DAG model."""

import pytest

from repro.utils.errors import CyclicWorkflowError
from repro.workflow.graph import Workflow


class TestConstruction:
    def test_add_task_defaults(self):
        wf = Workflow()
        wf.add_task("a")
        assert wf.work("a") == 1.0
        assert wf.memory("a") == 0.0

    def test_add_task_updates_in_place(self):
        wf = Workflow()
        wf.add_task("a", work=1, memory=2)
        wf.add_task("a", work=5, memory=7)
        assert wf.n_tasks == 1
        assert wf.work("a") == 5.0
        assert wf.memory("a") == 7.0

    def test_add_edge_creates_endpoints(self):
        wf = Workflow()
        wf.add_edge("a", "b", 3.0)
        assert "a" in wf and "b" in wf
        assert wf.edge_cost("a", "b") == 3.0

    def test_parallel_edges_sum(self):
        wf = Workflow()
        wf.add_edge("a", "b", 3.0)
        wf.add_edge("a", "b", 2.0)
        assert wf.n_edges == 1
        assert wf.edge_cost("a", "b") == 5.0

    def test_self_loop_rejected(self):
        wf = Workflow()
        with pytest.raises(CyclicWorkflowError):
            wf.add_edge("a", "a", 1.0)

    def test_remove_task_cleans_edges(self, diamond_workflow):
        diamond_workflow.remove_task("x")
        assert "x" not in diamond_workflow
        assert diamond_workflow.n_edges == 2
        assert list(diamond_workflow.children("s")) == ["y"]

    def test_remove_edge(self, diamond_workflow):
        diamond_workflow.remove_edge("s", "x")
        assert not diamond_workflow.has_edge("s", "x")
        assert diamond_workflow.in_degree("x") == 0


class TestWeights:
    def test_task_requirement_formula(self, diamond_workflow):
        # r_x = c(s,x) + c(x,t) + m_x = 2 + 3 + 4
        assert diamond_workflow.task_requirement("x") == pytest.approx(9.0)

    def test_source_requirement_has_no_inputs(self, diamond_workflow):
        # r_s = 0 + (2 + 1) + 1
        assert diamond_workflow.task_requirement("s") == pytest.approx(4.0)

    def test_total_work(self, diamond_workflow):
        assert diamond_workflow.total_work() == pytest.approx(7.0)

    def test_total_edge_cost(self, diamond_workflow):
        assert diamond_workflow.total_edge_cost() == pytest.approx(7.0)

    def test_max_task_requirement(self, diamond_workflow):
        # r_y = 1 + 1 + 6 = 8, r_x = 9, r_s = 4, r_t = 3+1+1 = 5
        assert diamond_workflow.max_task_requirement() == pytest.approx(9.0)

    def test_set_work_missing_task_raises(self):
        wf = Workflow()
        with pytest.raises(KeyError):
            wf.set_work("ghost", 1.0)


class TestStructure:
    def test_sources_and_targets(self, fig1_workflow):
        assert fig1_workflow.sources() == [1]
        assert fig1_workflow.targets() == [9]

    def test_topological_order_is_valid(self, fig1_workflow):
        order = fig1_workflow.topological_order()
        pos = {u: i for i, u in enumerate(order)}
        assert len(order) == 9
        for u, v, _ in fig1_workflow.edges():
            assert pos[u] < pos[v]

    def test_topological_order_deterministic(self, fig1_workflow):
        assert fig1_workflow.topological_order() == fig1_workflow.topological_order()

    def test_cycle_detection(self):
        wf = Workflow()
        wf.add_edge("a", "b")
        wf.add_edge("b", "c")
        wf.add_edge("c", "a")
        assert not wf.is_acyclic()
        cycle = wf.find_cycle()
        assert cycle is not None and set(cycle) == {"a", "b", "c"}
        with pytest.raises(CyclicWorkflowError):
            wf.topological_order()

    def test_acyclic_has_no_cycle(self, fig1_workflow):
        assert fig1_workflow.find_cycle() is None
        assert fig1_workflow.is_acyclic()

    def test_deep_graph_no_recursion_error(self):
        wf = Workflow()
        n = 50_000
        for i in range(n - 1):
            wf.add_edge(i, i + 1)
        assert wf.find_cycle() is None
        assert len(wf.topological_order()) == n

    def test_positions_follow_insertion_order_across_mutations(self):
        wf = Workflow()
        for u in "abc":
            wf.add_task(u)
        assert wf.positions() == {"a": 0, "b": 1, "c": 2}
        wf.remove_task("a")
        wf.add_edge("c", "d")
        assert wf.positions() == {"b": 0, "c": 1, "d": 2}

    def test_copy_is_independent(self, diamond_workflow):
        clone = diamond_workflow.copy()
        clone.set_work("x", 99.0)
        clone.remove_edge("s", "y")
        assert diamond_workflow.work("x") == 2.0
        assert diamond_workflow.has_edge("s", "y")


class TestNetworkxInterop:
    def test_roundtrip(self, fig1_workflow):
        g = fig1_workflow.to_networkx()
        back = Workflow.from_networkx(g)
        assert back.n_tasks == fig1_workflow.n_tasks
        assert back.n_edges == fig1_workflow.n_edges
        for u in fig1_workflow.tasks():
            assert back.work(u) == fig1_workflow.work(u)
            assert back.memory(u) == fig1_workflow.memory(u)
        for u, v, c in fig1_workflow.edges():
            assert back.edge_cost(u, v) == c

    def test_networkx_attributes(self, diamond_workflow):
        g = diamond_workflow.to_networkx()
        assert g.nodes["x"]["work"] == 2.0
        assert g.edges["s", "x"]["cost"] == 2.0

    def test_from_networkx_defaults(self):
        import networkx as nx
        g = nx.DiGraph()
        g.add_edge("a", "b")
        wf = Workflow.from_networkx(g)
        assert wf.work("a") == 1.0
        assert wf.edge_cost("a", "b") == 0.0


class TestRequirementCache:
    """task_requirement memoizes per-node totals; mutations invalidate."""

    def _diamond(self):
        wf = Workflow()
        wf.add_edge("s", "x", 2.0)
        wf.add_edge("s", "y", 3.0)
        wf.add_edge("x", "t", 4.0)
        wf.add_edge("y", "t", 5.0)
        return wf

    def test_cached_value_is_exact(self):
        wf = self._diamond()
        wf.set_memory("x", 7.0)
        assert wf.task_requirement("x") == 2.0 + 4.0 + 7.0
        # second call served from the memo, same value
        assert wf.task_requirement("x") == 13.0

    def test_adjacency_matches_the_accessors_after_mutations(self):
        wf = self._diamond()
        wf.out_cost("s")  # memoized, then invalidated below
        wf.add_edge("s", "x", 0.1)
        wf.remove_edge("y", "t")
        wf.set_memory("t", 3.0)
        parents, memory, children = wf.adjacency()
        assert list(parents) == list(children) == list(wf.tasks())
        for u in wf.tasks():
            assert list(parents[u].items()) == list(wf.in_edges(u))
            assert list(children[u].items()) == list(wf.out_edges(u))
            assert memory[u] == wf.memory(u)
            assert sum(children[u].values()) == wf.out_cost(u)

    def test_add_edge_invalidates_both_endpoints(self):
        wf = self._diamond()
        before_x = wf.task_requirement("x")
        before_y = wf.task_requirement("y")
        wf.add_edge("x", "y", 10.0)
        assert wf.task_requirement("x") == before_x + 10.0  # out total grew
        assert wf.task_requirement("y") == before_y + 10.0  # in total grew

    def test_parallel_edge_addition_invalidates(self):
        wf = self._diamond()
        assert wf.task_requirement("t") == 4.0 + 5.0
        wf.add_edge("x", "t", 0.5)  # collapses into the existing edge
        assert wf.task_requirement("t") == 4.5 + 5.0

    def test_remove_edge_invalidates(self):
        wf = self._diamond()
        assert wf.task_requirement("s") == 5.0
        wf.remove_edge("s", "y")
        assert wf.task_requirement("s") == 2.0
        assert wf.task_requirement("y") == 5.0  # lost its in-cost

    def test_remove_task_invalidates_neighbours(self):
        wf = self._diamond()
        assert wf.task_requirement("t") == 9.0
        wf.remove_task("x")
        assert wf.task_requirement("t") == 5.0
        assert wf.task_requirement("s") == 3.0

    def test_set_memory_reflected_immediately(self):
        wf = self._diamond()
        base = wf.task_requirement("t")
        wf.set_memory("t", 100.0)
        assert wf.task_requirement("t") == base + 100.0

    def test_long_mutation_sequence_never_stale(self):
        """Interleave reads and mutations; the memo must track exactly."""
        wf = Workflow()
        for i in range(10):
            wf.add_task(i, work=1.0, memory=float(i))
        for i in range(9):
            wf.add_edge(i, i + 1, float(i + 1))
            for u in range(10):
                fresh = (sum(c for _, c in wf.in_edges(u))
                         + sum(c for _, c in wf.out_edges(u))
                         + wf.memory(u))
                assert wf.task_requirement(u) == fresh
        wf.remove_edge(3, 4)
        wf.remove_task(7)
        for u in wf.tasks():
            fresh = (sum(c for _, c in wf.in_edges(u))
                     + sum(c for _, c in wf.out_edges(u))
                     + wf.memory(u))
            assert wf.task_requirement(u) == fresh

    def test_pickle_round_trip_drops_caches_safely(self):
        import pickle
        wf = self._diamond()
        wf.task_requirement("x")  # warm the memo
        clone = pickle.loads(pickle.dumps(wf))
        assert clone.task_requirement("x") == wf.task_requirement("x")
        clone.add_edge("x", "y", 1.0)
        assert clone.task_requirement("x") == wf.task_requirement("x") + 1.0
