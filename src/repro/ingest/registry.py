"""Importer registry — the single dispatch point for workflow formats.

Shares the algorithm/backend/policy registry mechanism: every format the
library can ingest is registered exactly once with :func:`register_format`,
and both the CLI (``repro ingest``) and the scenario workflow sources
resolve names through :func:`get_format` instead of per-caller
``if path.endswith(...)`` chains. A format declares

* its canonical **name** (``wfcommons``, ``dax``, ``dot``, ``edgelist``,
  ``json``, ``template``),
* the file **extensions** it claims (longest suffix wins, so
  ``.wfformat.json`` beats ``.json``),
* a **sniffer** — a cheap content predicate used by :func:`detect_format`
  when no explicit format is given, and
* the **importer** callable itself:
  ``importer(text, *, name=None, path=None, data=None) -> Workflow``.

Importers build *raw* workflows (through
:class:`~repro.ingest.normalize.WorkflowAssembler`, which catches duplicate
ids and unknown edge endpoints with file+line context); the shared
normalization/validation gate in :mod:`repro.ingest.normalize` runs
afterwards, once, for every format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.utils.errors import IngestError
from repro.utils.registry import Registry
from repro.workflow.graph import Workflow

#: importer signature: text + keyword context -> raw Workflow
Importer = Callable[..., Workflow]


@dataclass(frozen=True)
class FormatInfo:
    """One registry entry: the importer plus its self-description."""

    name: str  # canonical key, e.g. "wfcommons"
    display_name: str  # e.g. "WfCommons JSON" (used in messages/tables)
    importer: Importer
    extensions: Tuple[str, ...] = ()
    sniffer: Optional[Callable[[str], bool]] = None
    summary: str = ""

    def sniff(self, text: str) -> bool:
        """True when the content plausibly belongs to this format."""
        if self.sniffer is None:
            return False
        try:
            return bool(self.sniffer(text))
        except Exception:
            return False

    def matches_path(self, path: str) -> Optional[str]:
        """The longest registered extension ``path`` carries, or None."""
        lowered = path.lower()
        best = None
        for ext in self.extensions:
            if lowered.endswith(ext) and (best is None or len(ext) > len(best)):
                best = ext
        return best


_REGISTRY: Registry[FormatInfo] = Registry("workflow format")


def register_format(name: str, *, extensions: Tuple[str, ...] = (),
                    sniffer: Optional[Callable[[str], bool]] = None,
                    display_name: Optional[str] = None, summary: str = ""):
    """Function decorator adding an importer to the registry.

    The decorated callable must accept ``(text, *, name=None, path=None,
    data=None)`` and return a :class:`~repro.workflow.graph.Workflow`.
    Duplicate names (after canonicalization) are rejected.
    """
    key = _REGISTRY.key(name)

    def decorator(fn: Importer) -> Importer:
        _REGISTRY.add(FormatInfo(
            name=key,
            display_name=display_name or name,
            importer=fn,
            extensions=tuple(ext.lower() for ext in extensions),
            sniffer=sniffer,
            summary=summary,
        ))
        return fn

    return decorator


unregister_format = _REGISTRY.remove
available_formats = _REGISTRY.names
format_infos = _REGISTRY.infos
get_format = _REGISTRY.get


def detect_format(text: Optional[str] = None,
                  path: Optional[str] = None) -> FormatInfo:
    """Pick the format for a file by content sniffing plus extension.

    Content wins: when exactly one registered sniffer claims the text,
    that format is chosen regardless of the extension. Ties are broken by
    the extension (the candidate whose registered extension matches the
    path, longest suffix first); a tie the extension cannot break — or no
    match at all — raises :class:`IngestError` naming the candidates, so
    a misrouted file never silently parses as the wrong thing.
    """
    infos = format_infos()
    by_content = [info for info in infos if text is not None and info.sniff(text)]
    if len(by_content) == 1:
        return by_content[0]
    if len(by_content) > 1:
        if path is not None:
            best, best_ext = None, ""
            for info in by_content:
                ext = info.matches_path(path)
                if ext is not None and len(ext) > len(best_ext):
                    best, best_ext = info, ext
            if best is not None:
                return best
        names = ", ".join(info.name for info in by_content)
        raise IngestError(
            f"ambiguous workflow format (content matches: {names}); "
            f"pass an explicit format", path=path)
    # nothing sniffed — fall back to the extension alone
    if path is not None:
        best, best_ext = None, ""
        for info in infos:
            ext = info.matches_path(path)
            if ext is not None and len(ext) > len(best_ext):
                best, best_ext = info, ext
        if best is not None:
            return best
    valid = ", ".join(available_formats()) or "(none registered)"
    raise IngestError(
        f"cannot detect the workflow format; pass an explicit format "
        f"(available: {valid})", path=path)
