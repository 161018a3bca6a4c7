"""Serialization tests: JSON round-trips and DOT import/export."""

import pytest

from repro.ingest.dot import import_dot
from repro.ingest.load import ingest_path
from repro.utils.errors import IngestError
from repro.workflow.graph import Workflow
from repro.workflow.io import (
    save_workflow_json,
    workflow_from_dict,
    workflow_to_dict,
    workflow_to_dot,
)


class TestJson:
    def test_dict_roundtrip(self, fig1_workflow):
        back = workflow_from_dict(workflow_to_dict(fig1_workflow))
        assert back.n_tasks == fig1_workflow.n_tasks
        assert back.n_edges == fig1_workflow.n_edges
        for u, v, c in fig1_workflow.edges():
            assert back.edge_cost(u, v) == c

    def test_file_roundtrip(self, tmp_path, diamond_workflow):
        path = tmp_path / "wf.json"
        save_workflow_json(diamond_workflow, path)
        back = ingest_path(str(path))
        assert back.name == "diamond"
        assert back.work("y") == 3.0
        assert back.memory("y") == 6.0

    def test_dict_defaults(self):
        wf = workflow_from_dict({"tasks": [{"id": "a"}], "edges": []})
        assert wf.work("a") == 1.0
        assert wf.memory("a") == 0.0

    def test_duplicate_task_id_fails_loudly(self):
        with pytest.raises(IngestError, match="duplicate task id 'a'"):
            workflow_from_dict({"tasks": [{"id": "a"}, {"id": "a"}],
                                "edges": []})

    def test_edge_to_unknown_task_fails_loudly(self):
        with pytest.raises(IngestError, match="'ghost'"):
            workflow_from_dict(
                {"tasks": [{"id": "a"}],
                 "edges": [{"source": "a", "target": "ghost"}]})

    def test_load_names_offending_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"tasks": [{"id": 1}, {"id": 1}], "edges": []}')
        with pytest.raises(IngestError, match="bad.json"):
            ingest_path(str(path))


class TestDot:
    def test_roundtrip(self, diamond_workflow):
        text = workflow_to_dot(diamond_workflow)
        back = import_dot(text, name="diamond")
        assert back.n_tasks == 4
        assert back.n_edges == 4
        assert back.work("y") == 3.0
        assert back.edge_cost("s", "x") == 2.0

    def test_parses_unweighted_nextflow_style(self):
        text = """
        digraph "pipeline" {
          fastqc -> trim;
          trim -> align;
          align -> multiqc;
          fastqc -> multiqc;
        }
        """
        wf = import_dot(text)
        assert wf.n_tasks == 4
        assert wf.n_edges == 4
        # unweighted elements get the missing-historical-data defaults
        assert wf.work("trim") == 1.0
        assert wf.edge_cost("trim", "align") == 0.0

    def test_ignores_comments_and_styling(self):
        text = """
        digraph g {
          // a comment
          node [shape=box];
          "a" [work=5, memory=2];
          "a" -> "b" [cost=7];
        }
        """
        wf = import_dot(text)
        assert wf.work("a") == 5.0
        assert wf.memory("a") == 2.0
        assert wf.edge_cost("a", "b") == 7.0

    def test_weight_attribute_alias(self):
        wf = import_dot('digraph g {\n a -> b [weight=3];\n}')
        assert wf.edge_cost("a", "b") == 3.0

    def test_quoted_identifiers_with_spaces(self):
        wf = import_dot('digraph g { "fastqc raw" -> "trim"; }')
        assert "fastqc raw" in wf

    def test_unparsable_line_raises_not_silent_empty(self):
        with pytest.raises(IngestError):
            import_dot("digraph g {\n a -> b;\n !garbage!;\n}")

    def test_explicit_name_overrides_graph_name(self):
        text = 'digraph "internal name" { a -> b; }'
        assert import_dot(text).name == "internal name"
        assert import_dot(text, name="workflow").name == "workflow"
        assert import_dot("digraph { a -> b; }").name == "workflow"
