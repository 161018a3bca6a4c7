"""Ingestion of real workflow descriptions.

The paper evaluates its partitioners on real scientific workflows
(nextflow pipelines, Pegasus benchmarks); this package is the seam those
workflows enter through. A fixed table names the formats (looked up
like algorithm, backend and policy names), ``detect_format`` sniffs
content before trusting extensions, and everything funnels through one
normalization/validation gate so a workflow is either fully checked or
loudly rejected.

Shipped formats: ``wfcommons`` (WfCommons/wfformat JSON traces),
``dax`` (Pegasus DAX XML), ``dot`` (GraphViz/nextflow digraphs),
``edgelist`` (CSV-ish edge lists), ``template`` (jetstream-style
``{{var}}``/``{% for %}`` task lists), and ``json`` (the library's own
canonical serialization).

Typical use::

    from repro.ingest import ingest_path
    wf = ingest_path("examples/traces/epigenomics.wfformat.json")
"""

from repro.ingest.load import ingest_path, ingest_text
from repro.ingest.normalize import (DEFAULT_OPTIONS, NormalizeOptions,
                                    WorkflowAssembler, normalize_workflow,
                                    workflow_fingerprint, workflow_stats)
from repro.ingest.registry import (available_formats, detect_format,
                                   format_infos, get_format)
from repro.ingest.templates import (build_from_document, parse_structured,
                                    render_template)

__all__ = [
    "ingest_path",
    "ingest_text",
    "detect_format",
    "get_format",
    "available_formats",
    "format_infos",
    "NormalizeOptions",
    "DEFAULT_OPTIONS",
    "WorkflowAssembler",
    "normalize_workflow",
    "workflow_stats",
    "workflow_fingerprint",
    "render_template",
    "parse_structured",
    "build_from_document",
]
