"""Format table — the single dispatch point for workflow formats.

Every format the library can ingest is one :class:`FormatInfo` in a
fixed table, and both the CLI (``repro ingest``) and the scenario
workflow sources resolve names through :func:`get_format` (the name
lookup algorithms, backends and policies share) instead of per-caller
``if path.endswith(...)`` chains. A format declares

* its canonical **name** (``wfcommons``, ``dax``, ``dot``, ``edgelist``,
  ``json``, ``template``),
* the file **extensions** it claims (longest suffix wins, so
  ``.wfformat.json`` beats ``.json``),
* a **sniffer** — a cheap content predicate used by :func:`detect_format`
  when no explicit format is given, and
* the **importer** function itself, from the format's module:
  ``importer(text, *, name=None, path=None, data=None) -> Workflow``.

Importers build *raw* workflows (through
:class:`~repro.ingest.normalize.WorkflowAssembler`, which catches duplicate
ids and unknown edge endpoints with file+line context); the shared
normalization/validation gate in :mod:`repro.ingest.normalize` runs
afterwards, once, for every format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Tuple

from repro.ingest import canonical, dax, dot, edgelist, templates, wfcommons
from repro.utils.errors import IngestError
from repro.utils.registry import lookup
from repro.workflow.graph import Workflow

#: importer signature: text + keyword context -> raw Workflow
Importer = Callable[..., Workflow]


@dataclass(frozen=True)
class FormatInfo:
    """One table entry: the importer plus its self-description."""

    name: str  # canonical key, e.g. "wfcommons"
    display_name: str  # e.g. "WfCommons JSON" (used in messages/tables)
    importer: Importer
    extensions: Tuple[str, ...]  # lowercase
    sniffer: Callable[[str], bool]
    summary: str

    def sniff(self, text: str) -> bool:
        """True when the content plausibly belongs to this format."""
        try:
            return bool(self.sniffer(text))
        except Exception:
            return False

    def matches_path(self, path: str) -> Optional[str]:
        """The longest extension of this format ``path`` carries, or None."""
        lowered = path.lower()
        best = None
        for ext in self.extensions:
            if lowered.endswith(ext) and (best is None or len(ext) > len(best)):
                best = ext
        return best


#: every format, sorted by canonical name
_FORMATS = {info.name: info for info in (
    FormatInfo("dax", "Pegasus DAX", dax.import_dax,
               (".dax", ".dax.xml"), dax.sniff,
               "<adag> XML: jobs, uses-files, child/parent refs"),
    FormatInfo("dot", "GraphViz DOT", dot.import_dot, (".dot", ".gv"),
               dot.sniff, "nextflow -with-dag digraphs (hardened reader)"),
    FormatInfo("edgelist", "edge list / CSV", edgelist.import_edgelist,
               (".csv", ".edges", ".edgelist"), edgelist.sniff,
               "parent,child[,cost] rows; 'task id work mem' lines"),
    FormatInfo("json", "canonical JSON", canonical.import_canonical,
               (".json",), canonical.sniff,
               "the library's own {tasks, edges} serialization"),
    FormatInfo("template", "workflow template", templates.import_template,
               (".tpl", ".wft", ".wft.yaml"), templates.sniff,
               "{{var}}/{% for %} task list with after/before deps"),
    FormatInfo("wfcommons", "WfCommons JSON", wfcommons.import_wfcommons,
               (".wfformat.json", ".wfformat"), wfcommons.sniff,
               "wfformat traces: runtime=work, bytes=edge cost"),
)}


def available_formats() -> Tuple[str, ...]:
    """Sorted canonical names of every format."""
    return tuple(sorted(_FORMATS))


def format_infos() -> Tuple[FormatInfo, ...]:
    """Every format, sorted by canonical name."""
    return tuple(_FORMATS[name] for name in available_formats())


def get_format(name: str) -> FormatInfo:
    """Resolve a (canonicalized) name; unknown names list the valid ones."""
    return lookup("workflow format", _FORMATS, name)


def _by_extension(infos: Iterable[FormatInfo],
                  path: str) -> Optional[FormatInfo]:
    """The format among ``infos`` whose extension is the longest suffix of
    ``path`` (the first one wins a tie), or None."""
    best, best_ext = None, ""
    for info in infos:
        ext = info.matches_path(path)
        if ext is not None and len(ext) > len(best_ext):
            best, best_ext = info, ext
    return best


def detect_format(text: Optional[str] = None,
                  path: Optional[str] = None) -> FormatInfo:
    """Pick the format for a file by content sniffing plus extension.

    Content wins: when exactly one sniffer claims the text, that format
    is chosen regardless of the extension. Ties are broken by the
    extension (the candidate whose extension matches the path, longest
    suffix first); a tie the extension cannot break — or no match at
    all — raises :class:`IngestError` naming the candidates, so a
    misrouted file never silently parses as the wrong thing.
    """
    infos = format_infos()
    by_content = [info for info in infos if text is not None and info.sniff(text)]
    if len(by_content) == 1:
        return by_content[0]
    # several sniffers: the extension breaks the tie; none: it decides
    best = None if path is None else _by_extension(by_content or infos, path)
    if best is not None:
        return best
    if by_content:
        names = ", ".join(info.name for info in by_content)
        raise IngestError(
            f"ambiguous workflow format (content matches: {names}); "
            f"pass an explicit format", path=path)
    valid = ", ".join(available_formats())
    raise IngestError(
        f"cannot detect the workflow format; pass an explicit format "
        f"(available: {valid})", path=path)
