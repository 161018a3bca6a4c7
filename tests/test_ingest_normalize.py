"""Validation-gate tests: assembler errors, scaling, property round-trips."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ingest import (
    NormalizeOptions,
    WorkflowAssembler,
    ingest_text,
    normalize_workflow,
    workflow_fingerprint,
    workflow_stats,
)
from repro.utils.errors import IngestError
from repro.workflow.graph import Workflow
from repro.workflow.io import workflow_from_dict, workflow_to_dict


class TestAssembler:
    def test_duplicate_id_with_location(self):
        asm = WorkflowAssembler("w", path="f.json")
        asm.add_task("a")
        with pytest.raises(IngestError, match="f.json:7.*duplicate"):
            asm.add_task("a", line=7)

    def test_unknown_endpoint_strict(self):
        asm = WorkflowAssembler("w")
        asm.add_task("a")
        with pytest.raises(IngestError, match="unknown task 'b'"):
            asm.add_edge("a", "b")

    def test_implicit_endpoints_when_allowed(self):
        asm = WorkflowAssembler("w", allow_implicit_tasks=True)
        asm.add_edge("a", "b", 2.0)
        wf = asm.finish()
        assert wf.work("a") == 1.0
        assert wf.edge_cost("a", "b") == 2.0

    def test_self_loop_rejected_either_way(self):
        asm = WorkflowAssembler("w", allow_implicit_tasks=True)
        with pytest.raises(IngestError, match="self-loop"):
            asm.add_edge("a", "a")


class TestNormalize:
    def test_scaling_knobs(self):
        wf = Workflow("w")
        wf.add_task("a", 2.0, 4.0)
        wf.add_task("b", 3.0, 0.0)
        wf.add_edge("a", "b", 10.0)
        out = normalize_workflow(wf, NormalizeOptions(
            work_scale=2.0, cost_scale=0.1, memory_scale=0.5))
        assert out.work("a") == 4.0
        assert out.memory("a") == 2.0
        assert out.edge_cost("a", "b") == 1.0

    def test_ids_interned_to_strings(self):
        wf = Workflow("w")
        wf.add_task(1, 1.0, 0.0)
        wf.add_task(2, 1.0, 0.0)
        wf.add_edge(1, 2, 0.0)
        out = normalize_workflow(wf)
        assert sorted(out.tasks()) == ["1", "2"]

    def test_intern_collision_rejected(self):
        wf = Workflow("w")
        wf.add_task(1)
        wf.add_task("1")
        with pytest.raises(IngestError, match="collide"):
            normalize_workflow(wf)

    def test_cycle_rejected_with_members(self):
        wf = Workflow("w")
        for t in "abc":
            wf.add_task(t)
        wf.add_edge("a", "b")
        wf.add_edge("b", "c")
        wf.add_edge("c", "a")
        with pytest.raises(IngestError, match="cycle"):
            normalize_workflow(wf)

    def test_empty_workflow_rejected(self):
        with pytest.raises(IngestError, match="no tasks"):
            normalize_workflow(Workflow("w"))

    def test_nan_weight_rejected(self):
        wf = Workflow("w")
        wf.add_task("a", float("nan"), 0.0)
        with pytest.raises(IngestError, match="invalid work"):
            normalize_workflow(wf)

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="positive finite"):
            NormalizeOptions(work_scale=0.0)
        with pytest.raises(ValueError, match="positive finite"):
            NormalizeOptions(cost_scale=float("inf"))


class TestStrictDictPaths:
    def test_duplicate_task_id_names_offender(self):
        payload = {"tasks": [{"id": "x"}, {"id": "x"}], "edges": []}
        with pytest.raises(IngestError, match="'x'"):
            workflow_from_dict(payload)

    def test_unknown_edge_endpoint_names_offender(self):
        payload = {"tasks": [{"id": "a"}],
                   "edges": [{"source": "a", "target": "ghost"}]}
        with pytest.raises(IngestError, match="ghost"):
            workflow_from_dict(payload)

    def test_path_context_in_message(self):
        payload = {"tasks": [{"id": "a"}, {"id": "a"}]}
        with pytest.raises(IngestError, match="wf.json"):
            workflow_from_dict(payload, path="wf.json")

    def test_scalar_ids_preserved_no_interning(self):
        payload = {"tasks": [{"id": 1}, {"id": 2}],
                   "edges": [{"source": 1, "target": 2, "cost": 3.0}]}
        wf = workflow_from_dict(payload)
        assert wf.edge_cost(1, 2) == 3.0


# ----------------------------------------------------------------------
# hypothesis: random DAGs through the gate
# ----------------------------------------------------------------------
_weights = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                     allow_infinity=False)


@st.composite
def dags(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    wf = Workflow(draw(st.sampled_from(["wf", "trace", "pipeline"])))
    ids = [f"t{i}" for i in range(n)]
    for tid in ids:
        wf.add_task(tid, draw(_weights), draw(_weights))
    # edges only forward in id order: acyclic by construction
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                wf.add_edge(ids[i], ids[j], draw(_weights))
    return wf


@settings(max_examples=40, deadline=None)
@given(dags())
def test_normalization_idempotent(wf):
    once = normalize_workflow(wf)
    twice = normalize_workflow(once)
    assert workflow_to_dict(twice) == workflow_to_dict(once)
    assert workflow_fingerprint(twice) == workflow_fingerprint(once)


@settings(max_examples=40, deadline=None)
@given(dags())
def test_ingest_serialize_reingest_fixed_point(wf):
    normalized = normalize_workflow(wf)
    text = json.dumps(workflow_to_dict(normalized))
    back = ingest_text(text, fmt="json")
    assert workflow_to_dict(back) == workflow_to_dict(normalized)


@settings(max_examples=40, deadline=None)
@given(dags())
def test_stats_are_sane(wf):
    stats = workflow_stats(wf)
    assert stats["n_tasks"] == wf.n_tasks
    assert stats["n_edges"] == wf.n_edges
    assert 1 <= stats["depth"] <= wf.n_tasks
    assert stats["total_work"] == pytest.approx(
        sum(wf.work(u) for u in wf.tasks()))


@settings(max_examples=40, deadline=None)
@given(dags(), st.sampled_from([0.5, 2.0, 10.0]))
def test_fingerprint_ignores_insertion_order_not_content(wf, scale):
    # re-adding tasks/edges in reverse order: same fingerprint
    reordered = Workflow(wf.name)
    for u in reversed(list(wf.tasks())):
        reordered.add_task(u, wf.work(u), wf.memory(u))
    for u, v, c in reversed(list(wf.edges())):
        reordered.add_edge(u, v, c)
    assert workflow_fingerprint(reordered) == workflow_fingerprint(wf)
    # but scaling any weight changes it (content-sensitivity)
    if wf.n_tasks and scale != 1.0:
        scaled = normalize_workflow(wf, NormalizeOptions(work_scale=scale))
        if any(wf.work(u) > 0 for u in wf.tasks()):
            assert workflow_fingerprint(scaled) != workflow_fingerprint(wf)
