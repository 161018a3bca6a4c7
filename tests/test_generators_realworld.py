"""Tests of the nf-core-like real-world workflow simulation."""

import pytest

from repro.generators.realworld import (
    REAL_WORKFLOW_NAMES,
    _stage_key,
    generate_real_workflow,
)
from repro.workflow.validation import validate_workflow


class TestCatalogue:
    def test_five_workflows(self):
        assert len(REAL_WORKFLOW_NAMES) == 5

    def test_task_counts_in_paper_range(self):
        """The paper's real workflows have 11 to 58 tasks."""
        sizes = [generate_real_workflow(n).n_tasks for n in REAL_WORKFLOW_NAMES]
        assert min(sizes) == 11
        assert max(sizes) == 58
        assert all(11 <= s <= 58 for s in sizes)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            generate_real_workflow("nf-core/doesnotexist")

    def test_all_valid_dags(self):
        for wf in map(generate_real_workflow, REAL_WORKFLOW_NAMES):
            validate_workflow(wf)


class TestWeightFingerprint:
    def test_deterministic_per_name(self):
        a = generate_real_workflow("methylseq")
        b = generate_real_workflow("methylseq")
        assert [a.work(u) for u in a.tasks()] == [b.work(u) for u in b.tasks()]

    def test_long_tail_of_weight_one_tasks(self):
        """Tasks without historical data get weight 1 (40-60% of stages)."""
        for wf in map(generate_real_workflow, REAL_WORKFLOW_NAMES):
            ones = sum(1 for u in wf.tasks() if wf.work(u) == 1.0)
            assert ones >= 0.2 * wf.n_tasks, wf.name

    def test_measured_values_min_normalized(self):
        """Measured weights are normalized by the smallest measured value."""
        wf = generate_real_workflow("methylseq")
        measured = sorted({wf.work(u) for u in wf.tasks() if wf.work(u) != 1.0})
        assert measured
        assert measured[0] >= 1.0  # nothing below the normalization floor

    def test_stage_correlation(self):
        """All samples of the same stage share the same measured weight."""
        wf = generate_real_workflow("chipseq")
        by_stage = {}
        for u in wf.tasks():
            by_stage.setdefault(_stage_key(u), set()).add(wf.work(u))
        for stage, values in by_stage.items():
            assert len(values) == 1, f"stage {stage} has divergent weights"

    def test_memory_normalized_to_192(self):
        for wf in map(generate_real_workflow, REAL_WORKFLOW_NAMES):
            assert wf.max_task_requirement() <= 192.0 + 1e-9

    def test_work_factor(self):
        base = generate_real_workflow("mag")
        scaled = generate_real_workflow("mag", work_factor=4.0)
        for u in base.tasks():
            assert scaled.work(u) == pytest.approx(4.0 * base.work(u))


class TestStageKey:
    def test_strips_sample_index(self):
        assert _stage_key("methylseq:s3:stage2") == "methylseq:stage2"

    def test_keeps_global_stages(self):
        assert _stage_key("methylseq:multiqc") == "methylseq:multiqc"
        assert _stage_key("methylseq:aggregate1") == "methylseq:aggregate1"
