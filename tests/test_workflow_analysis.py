"""Tests for critical paths, levels, and fan-out statistics."""

import pytest

from repro.workflow.analysis import (
    critical_path,
    fanout_statistics,
    topological_levels,
    workflow_statistics,
)
from repro.workflow.graph import Workflow


class TestLevels:
    def test_chain_levels(self, chain_workflow):
        levels = topological_levels(chain_workflow)
        assert [levels[u] for u in "abcd"] == [0, 1, 2, 3]

    def test_diamond_levels(self, diamond_workflow):
        levels = topological_levels(diamond_workflow)
        assert levels["s"] == 0
        assert levels["x"] == levels["y"] == 1
        assert levels["t"] == 2

    def test_levels_use_longest_path(self):
        wf = Workflow()
        wf.add_edge("a", "d")
        wf.add_edge("a", "b")
        wf.add_edge("b", "c")
        wf.add_edge("c", "d")
        assert topological_levels(wf)["d"] == 3


class TestCriticalPath:
    def test_chain_is_its_own_critical_path(self, chain_workflow):
        path, length = critical_path(chain_workflow)
        assert path == ["a", "b", "c", "d"]
        # works 1+2+3+4 plus edges 3+1+2
        assert length == pytest.approx(16.0)

    def test_diamond_takes_heavier_branch(self, diamond_workflow):
        path, length = critical_path(diamond_workflow)
        # s->x->t: 1+2 + (2+3+1) = 9 ; s->y->t: 1+3 + (1+1+1) = 7
        assert path == ["s", "x", "t"]
        assert length == pytest.approx(9.0)

    def test_bandwidth_changes_critical_path(self, diamond_workflow):
        # with very fast network, the heavier-work branch (y) dominates
        path, _ = critical_path(diamond_workflow, beta=100.0)
        assert path == ["s", "y", "t"]

    def test_length_matches_path(self, fig1_workflow):
        path, length = critical_path(fig1_workflow)
        expected = sum(fig1_workflow.work(u) for u in path) + sum(
            fig1_workflow.edge_cost(u, v) for u, v in zip(path, path[1:]))
        assert length == pytest.approx(expected)
        assert path[0] == 1

    def test_empty_workflow(self):
        path, length = critical_path(Workflow())
        assert path == [] and length == 0.0


class TestFanout:
    def test_fork_width(self, fork_workflow):
        stats = fanout_statistics(fork_workflow)
        assert stats["max_out_degree"] == 6.0
        assert stats["width"] == 6.0

    def test_chain_width_one(self, chain_workflow):
        stats = fanout_statistics(chain_workflow)
        assert stats["width"] == 1.0
        assert stats["max_out_degree"] == 1.0

    def test_workflow_statistics_record(self, fig1_workflow):
        stats = workflow_statistics(fig1_workflow)
        assert stats.n_tasks == 9
        assert stats.n_edges == 13
        assert stats.n_sources == 1
        assert stats.n_targets == 1
        assert stats.total_work == pytest.approx(9.0)
        assert stats.depth == 7  # the 1-3-4-6-7-8-9 path has 7 levels

    def test_fanned_families_have_higher_width(self):
        from repro.generators.families import generate_topology
        blast = fanout_statistics(generate_topology("blast", 100))
        epi = fanout_statistics(generate_topology("epigenomics", 100))
        assert blast["width"] > epi["width"]
