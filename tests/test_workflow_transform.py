"""Tests for workflow transformations."""

import pytest

from repro.workflow.transform import normalize_memory_to, scale_memory


class TestScaling:
    def test_scale_memory_scales_edges_too(self, diamond_workflow):
        scaled = scale_memory(diamond_workflow, 0.5)
        assert scaled.memory("x") == 2.0
        assert scaled.edge_cost("s", "x") == 1.0
        assert scaled.work("x") == diamond_workflow.work("x")

    def test_normalize_memory_noop_when_fits(self, diamond_workflow):
        out = normalize_memory_to(diamond_workflow, 100.0)
        assert out.max_task_requirement() == diamond_workflow.max_task_requirement()

    def test_normalize_memory_scales_down(self, diamond_workflow):
        out = normalize_memory_to(diamond_workflow, 4.5)
        assert out.max_task_requirement() == pytest.approx(4.5)

    def test_normalize_preserves_ratios(self, diamond_workflow):
        out = normalize_memory_to(diamond_workflow, 4.5)
        orig = [diamond_workflow.task_requirement(u) for u in diamond_workflow.tasks()]
        new = [out.task_requirement(u) for u in out.tasks()]
        factor = new[0] / orig[0]
        for o, n in zip(orig, new):
            assert n == pytest.approx(o * factor)

