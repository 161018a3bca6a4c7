"""Tests of the traversal memory semantics (see ``repro.memdag.model``)."""

import pytest

from repro.memdag.model import (
    BlockPackingState,
    TraversalState,
    evaluate_traversal,
    peak_of_traversal,
)
from repro.workflow.graph import Workflow


class TestSingletonReducesToTaskRequirement:
    def test_singleton_block(self, diamond_workflow):
        for u in diamond_workflow.tasks():
            peak = peak_of_traversal(diamond_workflow, [u], {u})
            assert peak == pytest.approx(diamond_workflow.task_requirement(u))


class TestChainSemantics:
    def test_two_task_chain(self):
        wf = Workflow()
        wf.add_task("a", memory=5.0)
        wf.add_task("b", memory=3.0)
        wf.add_edge("a", "b", 10.0)
        usages = evaluate_traversal(wf, ["a", "b"])
        # during a: m_a + out(a) = 15 ; during b: live(10) + m_b = 13
        assert usages == [pytest.approx(15.0), pytest.approx(13.0)]

    def test_edge_freed_after_consumer(self):
        wf = Workflow()
        for name, m in [("a", 1.0), ("b", 1.0), ("c", 100.0)]:
            wf.add_task(name, memory=m)
        wf.add_edge("a", "b", 50.0)
        wf.add_edge("b", "c", 1.0)
        usages = evaluate_traversal(wf, ["a", "b", "c"])
        # c runs after the (a,b) file has been freed
        assert usages[2] == pytest.approx(1.0 + 100.0)


class TestExternalEdges:
    def test_external_input_streams_in(self, diamond_workflow):
        # block {x}: input from s is external
        peak = peak_of_traversal(diamond_workflow, ["x"], {"x"})
        assert peak == pytest.approx(2.0 + 4.0 + 3.0)  # c(s,x) + m_x + c(x,t)

    def test_external_output_retained_until_block_end(self):
        wf = Workflow()
        wf.add_task("a", memory=1.0)
        wf.add_task("b", memory=1.0)
        wf.add_task("ext", memory=0.0)
        wf.add_edge("a", "ext", 40.0)  # external output
        wf.add_edge("a", "b", 1.0)
        usages = evaluate_traversal(wf, ["a", "b"], {"a", "b"})
        # while b runs, a's external output (40) is still resident
        assert usages[1] == pytest.approx(40.0 + 1.0 + 1.0)


class TestTraversalState:
    def test_order_violation_raises(self, chain_workflow):
        state = TraversalState(chain_workflow)
        with pytest.raises(ValueError):
            state.execute("b")

    def test_non_member_raises(self, chain_workflow):
        state = TraversalState(chain_workflow, {"a", "b"})
        with pytest.raises(KeyError):
            state.execute("c")

    def test_ready_tasks_tracking(self, diamond_workflow):
        state = TraversalState(diamond_workflow)
        assert state.ready_tasks() == ["s"]
        state.execute("s")
        assert set(state.ready_tasks()) == {"x", "y"}
        state.execute("x")
        state.execute("y")
        assert state.ready_tasks() == ["t"]
        state.execute("t")
        assert state.complete()

    def test_peak_tracks_max(self, diamond_workflow):
        state = TraversalState(diamond_workflow)
        usages = [state.execute(u) for u in ["s", "x", "y", "t"]]
        assert state.peak == pytest.approx(max(usages))


class TestEvaluateTraversal:
    def test_rejects_wrong_cover(self, chain_workflow):
        with pytest.raises(ValueError):
            evaluate_traversal(chain_workflow, ["a", "b"])  # missing c, d

    def test_empty_block(self, chain_workflow):
        assert peak_of_traversal(chain_workflow, [], set()) == 0.0


class TestBlockPackingState:
    def test_matches_traversal_state_without_closed_blocks(self, diamond_workflow):
        packer = BlockPackingState(diamond_workflow, capacity=1e9)
        order = ["s", "x", "y", "t"]
        packed = [packer.add(u) for u in order]
        direct = evaluate_traversal(diamond_workflow, order)
        assert packed == pytest.approx(direct)

    def test_closed_block_edges_become_external_inputs(self, chain_workflow):
        packer = BlockPackingState(chain_workflow, capacity=1e9)
        packer.add("a")
        packer.close_block(1e9)
        usage_b = packer.add("b")
        # c(a,b)=3 streams in while b executes: 3 + m_b(4) + out(1)
        assert usage_b == pytest.approx(3.0 + 4.0 + 1.0)

    def test_fits_respects_capacity(self, chain_workflow):
        packer = BlockPackingState(chain_workflow, capacity=5.0)
        # a needs m_a(2) + out(3) = 5
        assert packer.fits("a")
        packer.add("a")
        # b needs live(3) + m_b(4) + out(1) = 8 > 5
        assert not packer.fits("b")

    def test_close_block_returns_tasks_and_resets(self, chain_workflow):
        packer = BlockPackingState(chain_workflow, capacity=1e9)
        packer.add("a")
        packer.add("b")
        tasks = packer.close_block(50.0)
        assert tasks == {"a", "b"}
        assert packer.live == 0.0
        assert packer.peak == 0.0
        assert packer.capacity == 50.0
