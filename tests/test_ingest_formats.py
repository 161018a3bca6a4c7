"""Per-format importer tests: golden samples, sniffing, hard errors."""

from pathlib import Path

import pytest

from repro.ingest import (
    available_formats,
    detect_format,
    get_format,
    ingest_path,
    ingest_text,
    workflow_fingerprint,
)
from repro.utils.errors import IngestError
from repro.workflow.io import workflow_to_dict

TRACES = Path(__file__).resolve().parent.parent / "examples" / "traces"

#: every bundled sample with its expected format (template data rides along)
SAMPLES = {
    "epigenomics.wfformat.json": "wfcommons",
    "montage.dax": "dax",
    "rnaseq.dot": "dot",
    "cyclesweep.csv": "edgelist",
    "variant_calling.tpl": "template",
    "broken_duplicate.json": "json",
}


class TestRegistry:
    def test_shipped_formats_registered(self):
        assert set(available_formats()) >= {
            "wfcommons", "dax", "dot", "edgelist", "template", "json"}

    def test_get_format_unknown_lists_valid(self):
        with pytest.raises(ValueError, match="wfcommons"):
            get_format("nope")

    def test_canonical_name_lookup(self):
        assert get_format("WfCommons").name == "wfcommons"
        assert get_format("wf_commons").name == "wfcommons"

    def test_detect_never_misroutes_bundled_samples(self):
        for filename, expected in SAMPLES.items():
            text = (TRACES / filename).read_text()
            info = detect_format(text, path=str(TRACES / filename))
            assert info.name == expected, filename

    def test_detect_without_any_signal_is_loud(self):
        with pytest.raises(IngestError, match="cannot detect"):
            detect_format("<html>not a workflow</html>", path="page.xyz")

    def test_extension_fallback_when_nothing_sniffs(self):
        # an unparsable payload defeats every sniffer; the longest
        # registered extension decides (.wfformat.json beats .json)
        info = detect_format("{broken json", path="trace.wfformat.json")
        assert info.name == "wfcommons"


class TestWfCommons:
    def test_golden_epigenomics(self):
        wf = ingest_path(str(TRACES / "epigenomics.wfformat.json"))
        assert wf.name == "epigenomics-chr21"
        assert wf.n_tasks == 9
        assert wf.n_edges == 9
        # execution overlay carries the runtimes/memory
        assert wf.work("map_1") == pytest.approx(210.8)
        assert wf.memory("map_1") == pytest.approx(1073741824)

    def test_flat_layout_with_file_costs(self):
        text = """{"name": "flat", "workflow": {"tasks": [
            {"name": "a", "runtime": 2,
             "files": [{"name": "f", "link": "output", "sizeInBytes": 64}],
             "children": ["b"]},
            {"name": "b", "runtime": 3,
             "files": [{"name": "f", "link": "input", "sizeInBytes": 64}],
             "parents": ["a"]}]}}"""
        wf = ingest_text(text, fmt="wfcommons")
        assert wf.edge_cost("a", "b") == 64.0
        assert wf.name == "flat"

    def test_unknown_parent_is_loud(self):
        text = """{"workflow": {"tasks": [
            {"name": "b", "parents": ["ghost"]}]}}"""
        with pytest.raises(IngestError, match="ghost"):
            ingest_text(text, fmt="wfcommons")

    def test_invalid_json_reports_line(self):
        with pytest.raises(IngestError, match="x.json:2"):
            ingest_text('{"workflow":\n !}', fmt="wfcommons", path="x.json")


class TestDax:
    def test_golden_montage(self):
        wf = ingest_path(str(TRACES / "montage.dax"))
        assert wf.name == "montage"
        assert wf.n_tasks == 10
        assert wf.n_edges == 13
        assert wf.work("mAdd") == pytest.approx(17.5)
        assert wf.memory("mBgModel") == pytest.approx(2048)
        # edge cost = size of the file flowing parent -> child
        assert wf.edge_cost("mProject_1", "mDiff_12") == pytest.approx(4.2e6)

    def test_non_adag_root_rejected(self):
        with pytest.raises(IngestError, match="adag"):
            ingest_text("<workflow></workflow>", fmt="dax")

    def test_invalid_xml_rejected(self):
        with pytest.raises(IngestError, match="invalid XML"):
            ingest_text("<adag><job id='a'></adag>", fmt="dax")

    def test_job_without_id_rejected(self):
        with pytest.raises(IngestError, match="without an id"):
            ingest_text('<adag name="g"><job runtime="1"/></adag>',
                        fmt="dax")


class TestDotHardened:
    def test_golden_rnaseq(self):
        wf = ingest_path(str(TRACES / "rnaseq.dot"))
        assert wf.name == "rnaseq (salmon)"
        assert wf.n_tasks == 8
        assert 'TRIM "galore"' in wf
        assert wf.edge_cost("FASTQC raw", 'TRIM "galore"') == \
            pytest.approx(3.2)

    def test_quoted_ids_with_spaces_and_escapes(self):
        wf = ingest_text(
            'digraph g { "a b" -> "c \\"quoted\\"" [cost=2]; }', fmt="dot")
        assert sorted(wf.tasks()) == ["a b", 'c "quoted"']

    def test_block_comments_inside_statements(self):
        wf = ingest_text(
            'digraph g { a /* mid */ -> b; /* whole\nline */ b -> c; }',
            fmt="dot")
        assert wf.n_edges == 2

    def test_edge_chain_shares_attrs(self):
        wf = ingest_text("digraph g { a -> b -> c [cost=5]; }", fmt="dot")
        assert wf.edge_cost("a", "b") == 5.0
        assert wf.edge_cost("b", "c") == 5.0

    def test_node_only_statement(self):
        wf = ingest_text('digraph g { lonely; a -> b; }', fmt="dot")
        assert "lonely" in wf
        assert wf.in_degree("lonely") == 0

    def test_unparsable_line_is_loud_with_line_number(self):
        text = 'digraph g {\n a -> b;\n ???;\n}'
        with pytest.raises(IngestError, match="(?s)x.dot:3.*unexpected"):
            ingest_text(text, fmt="dot", path="x.dot")

    def test_empty_input_is_loud_not_empty_workflow(self):
        with pytest.raises(IngestError, match="no graph statements"):
            ingest_text("digraph g { }", fmt="dot")

    def test_dangling_arrow_rejected(self):
        with pytest.raises(IngestError, match="dangling"):
            ingest_text("digraph g { a -> ; }", fmt="dot")

    def test_unterminated_quote_rejected(self):
        with pytest.raises(IngestError, match="unterminated quoted"):
            ingest_text('digraph g { "oops -> b; }', fmt="dot")

    def test_unterminated_comment_rejected(self):
        with pytest.raises(IngestError, match="unterminated /"):
            ingest_text("digraph g { a -> b; /* never closed", fmt="dot")

    def test_subgraph_rejected_not_silently_skipped(self):
        with pytest.raises(IngestError, match="subgraph"):
            ingest_text("digraph g { subgraph s { a -> b; } }", fmt="dot")

    def test_last_node_declaration_wins(self):
        wf = ingest_text(
            'digraph g { a [work=1]; a [work=9]; a -> b; }', fmt="dot")
        assert wf.work("a") == 9.0


class TestEdgeList:
    def test_golden_cyclesweep(self):
        wf = ingest_path(str(TRACES / "cyclesweep.csv"))
        assert wf.name == "cyclesweep"
        assert wf.n_tasks == 7
        assert wf.work("sweep_2") == 6.0
        assert wf.memory("collect") == 5.0
        # 'archive' only appears as an edge endpoint: implicit defaults
        assert wf.work("archive") == 1.0

    def test_whitespace_and_semicolon_separators(self):
        wf = ingest_text("a b 2\nb;c;3\n", fmt="edgelist")
        assert wf.edge_cost("a", "b") == 2.0
        assert wf.edge_cost("b", "c") == 3.0

    def test_bad_cost_names_line(self):
        with pytest.raises(IngestError, match="e.csv:2"):
            ingest_text("a,b,1\nb,c,fast\n", fmt="edgelist", path="e.csv")

    def test_empty_input_rejected(self):
        with pytest.raises(IngestError, match="no rows"):
            ingest_text("# nothing here\n", fmt="edgelist")

    def test_too_many_columns_rejected(self):
        with pytest.raises(IngestError, match="columns"):
            ingest_text("a,b,1,2,3\n", fmt="edgelist")


class TestRoundTrips:
    @pytest.mark.parametrize("filename", sorted(
        f for f, fmt in SAMPLES.items()
        if fmt not in ("template", "json")))
    def test_ingest_to_dict_reingest_fixed_point(self, filename):
        wf = ingest_path(str(TRACES / filename))
        serialized = workflow_to_dict(wf)
        back = ingest_text(__import__("json").dumps(serialized), fmt="json")
        assert workflow_to_dict(back) == serialized
        assert workflow_fingerprint(back) == workflow_fingerprint(wf)

    @pytest.mark.parametrize("filename", sorted(
        f for f, fmt in SAMPLES.items() if fmt != "template"
        and f != "broken_duplicate.json"))
    def test_repeated_ingest_bit_identical(self, filename):
        first = ingest_path(str(TRACES / filename))
        second = ingest_path(str(TRACES / filename))
        assert workflow_to_dict(first) == workflow_to_dict(second)

    def test_name_is_path_independent(self, tmp_path):
        src = TRACES / "montage.dax"
        copy = tmp_path / "elsewhere" / "montage.dax"
        copy.parent.mkdir()
        copy.write_text(src.read_text())
        assert workflow_fingerprint(ingest_path(str(src))) == \
            workflow_fingerprint(ingest_path(str(copy)))
