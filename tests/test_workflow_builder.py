"""Tests of the fluent WorkflowBuilder."""

import pytest

from repro.workflow.builder import WorkflowBuilder


class TestBasics:
    def test_task_and_link(self):
        wf = (WorkflowBuilder("t")
              .task("a", work=2, memory=3)
              .task("b")
              .link("a", "b", cost=5)
              .build())
        assert wf.work("a") == 2
        assert wf.edge_cost("a", "b") == 5

    def test_duplicate_task_rejected(self):
        b = WorkflowBuilder().task("a")
        with pytest.raises(ValueError, match="already exists"):
            b.task("a")

    def test_link_requires_existing_tasks(self):
        b = WorkflowBuilder().task("a")
        with pytest.raises(KeyError):
            b.link("a", "ghost")


class TestPatterns:
    def test_chain(self):
        wf = WorkflowBuilder().chain(["a", "b", "c"], work=2, cost=1).build()
        assert wf.n_tasks == 3
        assert wf.has_edge("a", "b") and wf.has_edge("b", "c")
        assert not wf.has_edge("a", "c")

    def test_chain_after(self):
        wf = (WorkflowBuilder()
              .task("root")
              .chain(["x", "y"], after="root", cost=2)
              .build())
        assert wf.edge_cost("root", "x") == 2

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            WorkflowBuilder().chain([])

    def test_fan_out_and_join(self):
        wf = (WorkflowBuilder()
              .fan_out("split", ["w0", "w1", "w2"], cost=3)
              .join(["w0", "w1", "w2"], "merge", cost=1)
              .build())
        assert wf.out_degree("split") == 3
        assert wf.in_degree("merge") == 3

    def test_fan_out_existing_source(self):
        wf = (WorkflowBuilder()
              .task("src")
              .fan_out("src", ["a", "b"], source_exists=True)
              .build())
        assert wf.out_degree("src") == 2

    def test_stage_parallel_links(self):
        wf = (WorkflowBuilder()
              .fan_out("s", ["a0", "a1"])
              .stage(["a0", "a1"], ["b0", "b1"], cost=2)
              .build())
        assert wf.has_edge("a0", "b0")
        assert wf.has_edge("a1", "b1")
        assert not wf.has_edge("a0", "b1")

    def test_stage_length_mismatch(self):
        b = WorkflowBuilder().fan_out("s", ["a0", "a1"])
        with pytest.raises(ValueError):
            b.stage(["a0"], ["b0", "b1"])


class TestBuildValidation:
    def test_build_validates(self):
        b = WorkflowBuilder().task("a", work=-5)
        with pytest.raises(Exception):
            b.build()

    def test_build_without_validation(self):
        wf = WorkflowBuilder().task("a", work=-5).build(validate=False)
        assert wf.work("a") == -5

    def test_docstring_example_schedulable(self):
        from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
        from repro.platform.cluster import Cluster
        from repro.platform.processor import Processor
        wf = (WorkflowBuilder("pipeline")
              .task("ingest", work=10, memory=4)
              .chain(["decode", "filter"], work=50, memory=8, cost=16)
              .fan_out("split", ["align0", "align1", "align2"],
                       work=200, memory=24, cost=8)
              .join(["align0", "align1", "align2"], "merge", cost=4)
              .link("ingest", "decode", cost=8)
              .link("filter", "split", cost=16)
              .build())
        cluster = Cluster([Processor(f"p{i}", 4.0, 200.0) for i in range(4)])
        mapping = dag_het_part_sweep(
            wf, cluster, DagHetPartConfig(k_prime_strategy="all")).mapping
        mapping.validate()
