"""Tests of the partitioner's internal stages: CGraph, coarsening,
initial partitioning, refinement."""

import pytest

from repro.partition.coarsen import (CoarseningHierarchy, coarsen_pass,
                                    default_balance_cap, safe_to_contract)
from repro.partition.contraction import CGraph
from repro.partition.initial import dfs_topological_order, initial_partition
from repro.partition.refine import edge_cut, refine
from repro.workflow.graph import Workflow


def _cgraph_from_edges(edges, weights=None):
    wf = Workflow()
    nodes = {u for e in edges for u in e}
    for u in nodes:
        wf.add_task(u, work=1.0)
    for u, v in edges:
        wf.add_edge(u, v, 1.0)
    w = weights or {}
    return CGraph.from_workflow(wf, lambda u: w.get(u, 1.0)), wf


class TestCGraph:
    def test_from_workflow(self, fig1_workflow):
        g = CGraph.from_workflow(fig1_workflow, lambda u: 2.0)
        assert len(g) == 9
        assert g.total_weight() == 18.0
        assert g.n_edges() == 13

    def test_from_subset(self, fig1_workflow):
        g = CGraph.from_subset(fig1_workflow, {6, 7, 8}, lambda u: 1.0)
        assert len(g) == 3
        assert g.n_edges() == 3  # (6,7), (6,8), (7,8)

    def test_contract_merges_weights_and_members(self):
        g, _ = _cgraph_from_edges([("a", "b"), ("b", "c")])
        g.contract("a", "b")
        assert len(g) == 2
        assert g.weight["a"] == 2.0
        assert sorted(g.members["a"]) == ["a", "b"]
        assert "c" in g.succ["a"]

    def test_contract_sums_parallel_edges(self):
        # a->b, a->c, b->c : contracting (a,b) makes a double a->c edge
        g, _ = _cgraph_from_edges([("a", "b"), ("a", "c"), ("b", "c")])
        g.contract("a", "b")
        assert g.succ["a"]["c"] == 2.0
        assert g.pred["c"]["a"] == 2.0

    def test_contract_missing_edge_raises(self):
        g, _ = _cgraph_from_edges([("a", "b")])
        with pytest.raises(KeyError):
            g.contract("b", "a")

    def test_topological_order(self):
        g, _ = _cgraph_from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        order = g.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")


class TestSafety:
    def test_unique_parent_is_safe(self):
        g, _ = _cgraph_from_edges([("a", "b"), ("a", "c"), ("c", "d")])
        assert safe_to_contract(g, "a", "b")  # b's only parent is a

    def test_diamond_edge_unsafe_rule(self):
        # contracting (s,t) in a diamond would create a cycle; both local
        # rules reject it: t has 2 parents, s has 2 children
        g, _ = _cgraph_from_edges([("s", "x"), ("s", "y"), ("x", "t"), ("y", "t"),
                                   ("s", "t")])
        assert not safe_to_contract(g, "s", "t")

    def test_contractions_preserve_acyclicity(self):
        from repro.generators.random_dag import random_layered_dag
        for seed in range(6):
            wf = random_layered_dag(60, seed=seed)
            g = CGraph.from_workflow(wf, lambda u: 1.0)
            coarse, _, n = coarsen_pass(g, max_cluster_weight=10.0)
            assert coarse.is_acyclic()
            assert len(coarse) == len(g) - n


class TestCoarsen:
    def test_hierarchy_shrinks(self):
        from repro.generators.families import generate_workflow
        wf = generate_workflow("blast", 200, seed=0)
        g = CGraph.from_workflow(wf, lambda u: 1.0)
        levels = CoarseningHierarchy(g, default_balance_cap(g, 32)).levels_for(32)
        assert levels
        sizes = [len(g)] + [len(lvl.graph) for lvl in levels]
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_assignment_maps_all_fine_nodes(self):
        from repro.generators.random_dag import random_layered_dag
        wf = random_layered_dag(80, seed=1)
        g = CGraph.from_workflow(wf, lambda u: 1.0)
        levels = CoarseningHierarchy(g, default_balance_cap(g, 16)).levels_for(16)
        if levels:
            assert set(levels[0].assignment) == set(g.nodes())
            assert set(levels[0].assignment.values()) == set(levels[0].graph.nodes())

    def test_respects_weight_cap(self):
        g, _ = _cgraph_from_edges([("a", "b"), ("b", "c"), ("c", "d")],
                                  weights={"a": 5, "b": 5, "c": 5, "d": 5})
        coarse, _, n = coarsen_pass(g, max_cluster_weight=7.0)
        assert n == 0  # every contraction would exceed the cap


class TestInitial:
    def test_dfs_order_is_topological(self, fig1_workflow):
        g = CGraph.from_workflow(fig1_workflow, lambda u: 1.0)
        order = dfs_topological_order(g)
        pos = {u: i for i, u in enumerate(order)}
        for u, v, _ in fig1_workflow.edges():
            assert pos[u] < pos[v]

    def test_dfs_keeps_chains_contiguous(self):
        # two independent chains: DFS order must not interleave them
        g, _ = _cgraph_from_edges([("a1", "a2"), ("a2", "a3"),
                                   ("b1", "b2"), ("b2", "b3")])
        order = dfs_topological_order(g)
        a_pos = [order.index(x) for x in ("a1", "a2", "a3")]
        b_pos = [order.index(x) for x in ("b1", "b2", "b3")]
        assert max(a_pos) < min(b_pos) or max(b_pos) < min(a_pos)

    def test_initial_partition_block_count(self):
        g, _ = _cgraph_from_edges([(i, i + 1) for i in range(19)])
        part = initial_partition(g, 4)
        assert set(part.values()) == {0, 1, 2, 3}

    def test_initial_partition_balanced_on_uniform_chain(self):
        g, _ = _cgraph_from_edges([(i, i + 1) for i in range(99)])
        part = initial_partition(g, 4)
        sizes = [sum(1 for b in part.values() if b == i) for i in range(4)]
        assert max(sizes) - min(sizes) <= 2

    def test_indices_follow_topological_order(self):
        g, _ = _cgraph_from_edges([(i, i + 1) for i in range(9)])
        part = initial_partition(g, 3)
        for u in g.succ:
            for v in g.succ[u]:
                assert part[u] <= part[v]

    def test_k_larger_than_n(self):
        g, _ = _cgraph_from_edges([("a", "b")])
        part = initial_partition(g, 10)
        assert len(set(part.values())) == 2


class TestRefine:
    def test_refine_reduces_cut(self):
        # chain of triangles where initial chunking cuts badly
        from repro.generators.random_dag import random_workflow
        improved, worsened = 0, 0
        for seed in range(6):
            wf = random_workflow(60, seed=seed)
            g = CGraph.from_workflow(wf, lambda u: 1.0)
            part = initial_partition(g, 4)
            before = edge_cut(g, part)
            refine(g, part, 4)
            after = edge_cut(g, part)
            assert after <= before + 1e-9
            if after < before:
                improved += 1
        assert improved >= 1  # refinement must actually do something

    def test_refine_preserves_acyclic_index_invariant(self):
        from repro.generators.random_dag import random_workflow
        wf = random_workflow(80, seed=3)
        g = CGraph.from_workflow(wf, lambda u: 1.0)
        part = initial_partition(g, 5)
        refine(g, part, 5)
        for u in g.succ:
            for v in g.succ[u]:
                assert part[u] <= part[v]

    def test_refine_never_empties_blocks(self):
        from repro.generators.random_dag import random_workflow
        wf = random_workflow(40, seed=4)
        g = CGraph.from_workflow(wf, lambda u: 1.0)
        part = initial_partition(g, 4)
        n_before = len(set(part.values()))
        refine(g, part, 4)
        assert len(set(part.values())) == n_before

    def test_trivial_cases(self):
        g, _ = _cgraph_from_edges([("a", "b")])
        part = {"a": 0, "b": 0}
        assert refine(g, part, 1) == part


class TestOrderStrategies:
    def test_bfs_order_is_topological(self, fig1_workflow):
        from repro.partition.initial import bfs_topological_order
        g = CGraph.from_workflow(fig1_workflow, lambda u: 1.0)
        order = bfs_topological_order(g)
        pos = {u: i for i, u in enumerate(order)}
        for u, v, _ in fig1_workflow.edges():
            assert pos[u] < pos[v]

    def test_bfs_groups_levels(self):
        # fan: root then all leaves; BFS keeps leaves adjacent
        g, _ = _cgraph_from_edges([("r", f"l{i}") for i in range(5)])
        from repro.partition.initial import bfs_topological_order
        order = bfs_topological_order(g)
        assert order[0] == "r"
        assert set(order[1:]) == {f"l{i}" for i in range(5)}

    def test_unknown_strategy_rejected(self, fig1_workflow):
        g = CGraph.from_workflow(fig1_workflow, lambda u: 1.0)
        import pytest as _pytest
        with _pytest.raises(ValueError, match="strategy"):
            initial_partition(g, 2, strategy="zigzag")

    def test_best_strategy_never_worse_than_either(self):
        from repro.generators.families import generate_workflow
        from repro.partition.api import acyclic_partition, partition_quality
        wf = generate_workflow("montage", 120, seed=14)
        cuts = {}
        for strat in ("dfs", "bfs", "best"):
            blocks = acyclic_partition(wf, 6, strategy=strat)
            cuts[strat] = partition_quality(wf, blocks)["cut"]
        assert cuts["best"] <= min(cuts["dfs"], cuts["bfs"]) + 1e-9
