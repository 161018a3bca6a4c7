"""Dependency-free workflow templates: render, parse, build.

Hand-written workflow descriptions get repetitive the moment a study
needs "the same pipeline over N samples". The template format keeps the
description declarative while letting user data drive the shape
(jetstream-style):

1. **Render** — the template text is expanded against a data mapping:
   ``{{expr}}`` substitutes a dotted lookup (``sample.name``,
   ``sizes.0``) and a ``{% for x in items %}`` ... ``{% endfor %}``
   line-block repeats its body once per element. Loops nest; undefined
   names are errors, not empty strings.
2. **Parse** — the rendered text is a task-list document, written either
   as JSON or as a *restricted YAML subset* (mappings, ``-`` lists,
   inline ``[a, b]`` lists, scalars — two-space indentation, no anchors,
   no multi-line strings, no tabs).
3. **Build** — the document's ``tasks`` become a workflow: ``id``,
   ``work``, ``memory``, plus ``after``/``before`` dependency directives
   (a task id or list of ids; ``cost`` on the task prices its ``after``
   edges). Dangling references and duplicate ids raise
   :class:`~repro.utils.errors.IngestError`.

Everything is pure stdlib and deterministic: the same template and data
always produce the same workflow, bit for bit.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.ingest.normalize import WorkflowAssembler
from repro.utils.errors import IngestError
from repro.workflow.graph import Workflow

_VAR_RE = re.compile(r"\{\{\s*([A-Za-z_][\w.]*)\s*\}\}")
_FOR_RE = re.compile(
    r"\{%\s*for\s+([A-Za-z_]\w*)\s+in\s+([A-Za-z_][\w.]*)\s*%\}")
_ENDFOR_RE = re.compile(r"\{%\s*endfor\s*%\}")
_DIRECTIVE_RE = re.compile(r"\{%.*?%\}")
_MAPPING_RE = re.compile(r"^([^:\s][^:]*?)\s*:(\s+|$)")


# ----------------------------------------------------------------------
# stage 1: render {{var}} / {% for %} against user data
# ----------------------------------------------------------------------
def _lookup(expr: str, scope: Dict[str, Any], *, path: Optional[str],
            line: int) -> Any:
    parts = expr.split(".")
    if parts[0] not in scope:
        raise IngestError(
            f"undefined template variable {parts[0]!r} (available: "
            + (", ".join(sorted(map(str, scope))) or "none") + ")",
            path=path, line=line)
    value = scope[parts[0]]
    for part in parts[1:]:
        if isinstance(value, dict) and part in value:
            value = value[part]
        elif isinstance(value, (list, tuple)) and part.isdigit() \
                and int(part) < len(value):
            value = value[int(part)]
        else:
            raise IngestError(
                f"template variable {expr!r}: cannot resolve {part!r}",
                path=path, line=line)
    return value


def _render_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (dict, list, tuple)):
        return json.dumps(value)
    if value is None:
        return "null"
    return str(value)


def _substitute(line: str, scope: Dict[str, Any], *, path: Optional[str],
                lineno: int) -> str:
    def repl(match: "re.Match[str]") -> str:
        return _render_value(_lookup(match.group(1), scope, path=path,
                                     line=lineno))

    out = _VAR_RE.sub(repl, line)
    leftover = _DIRECTIVE_RE.search(out)
    if leftover:
        raise IngestError(
            f"unrecognized template directive {leftover.group(0)!r}",
            path=path, line=lineno)
    return out


def _render_block(lines: List[str], i: int, end: int,
                  scope: Dict[str, Any], out: List[str],
                  path: Optional[str]) -> None:
    while i < end:
        line = lines[i]
        match = _FOR_RE.search(line)
        if match:
            if line.strip() != match.group(0):
                raise IngestError(
                    "a {% for %} directive must stand on its own line",
                    path=path, line=i + 1)
            depth, j = 1, i + 1
            while j < end:
                if _FOR_RE.search(lines[j]):
                    depth += 1
                elif _ENDFOR_RE.search(lines[j]):
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if depth != 0:
                raise IngestError("{% for %} without a matching "
                                  "{% endfor %}", path=path, line=i + 1)
            var, expr = match.group(1), match.group(2)
            seq = _lookup(expr, scope, path=path, line=i + 1)
            if not isinstance(seq, (list, tuple)):
                raise IngestError(
                    f"{{% for %}} over {expr!r} needs a list, got "
                    f"{type(seq).__name__}", path=path, line=i + 1)
            for item in seq:
                inner = dict(scope)
                inner[var] = item
                _render_block(lines, i + 1, j, inner, out, path)
            i = j + 1
        elif _ENDFOR_RE.search(line):
            raise IngestError("{% endfor %} without a matching {% for %}",
                              path=path, line=i + 1)
        else:
            out.append(_substitute(line, scope, path=path, lineno=i + 1))
            i += 1


def render_template(text: str, data: Optional[Dict[str, Any]] = None, *,
                    path: Optional[str] = None) -> str:
    """Expand ``{{var}}`` substitutions and ``{% for %}`` blocks."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise IngestError(
            f"template data must be a mapping, got {type(data).__name__}",
            path=path)
    lines = text.splitlines()
    out: List[str] = []
    _render_block(lines, 0, len(lines), dict(data), out, path)
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# stage 2: parse the rendered document (JSON or restricted YAML subset)
# ----------------------------------------------------------------------
def _parse_scalar(raw: str) -> Any:
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if low in ("null", "~"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _parse_value(raw: str, *, path: Optional[str], line: int) -> Any:
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part.strip()) for part in inner.split(",")]
    if raw.startswith("{"):
        raise IngestError(
            "inline {...} mappings are outside the supported YAML subset",
            path=path, line=line)
    return _parse_scalar(raw)


def _parse_block(lines: List[Tuple[int, str, int]], i: int,
                 path: Optional[str]) -> Tuple[Any, int]:
    """Parse consecutive lines sharing the indentation of ``lines[i]``."""
    indent = lines[i][0]
    if lines[i][1] == "-" or lines[i][1].startswith("- "):
        items: List[Any] = []
        while i < len(lines) and lines[i][0] == indent and (
                lines[i][1] == "-" or lines[i][1].startswith("- ")):
            _, text, ln = lines[i]
            rest = text[1:].strip()
            if not rest:
                i += 1
                if i < len(lines) and lines[i][0] > indent:
                    value, i = _parse_block(lines, i, path)
                    items.append(value)
                else:
                    items.append(None)
            elif _MAPPING_RE.match(rest):
                # '- key: value' opens a mapping whose further keys sit
                # at the column where 'key' starts (indent + 2)
                sub: List[Tuple[int, str, int]] = [(indent + 2, rest, ln)]
                i += 1
                while i < len(lines) and lines[i][0] >= indent + 2:
                    sub.append(lines[i])
                    i += 1
                value, consumed = _parse_block(sub, 0, path)
                if consumed != len(sub):
                    raise IngestError("unparsable line in list item",
                                      path=path, line=sub[consumed][2])
                items.append(value)
            else:
                items.append(_parse_value(rest, path=path, line=ln))
                i += 1
        return items, i

    mapping: Dict[str, Any] = {}
    while i < len(lines) and lines[i][0] == indent:
        _, text, ln = lines[i]
        match = _MAPPING_RE.match(text)
        if not match:
            if mapping:
                break
            raise IngestError(
                f"expected 'key: value' or '- item', got {text!r}",
                path=path, line=ln)
        key = match.group(1).strip()
        if len(key) >= 2 and key[0] == key[-1] and key[0] in "\"'":
            key = key[1:-1]
        if key in mapping:
            raise IngestError(f"duplicate key {key!r}", path=path, line=ln)
        rest = text[match.end():].strip()
        i += 1
        if rest:
            mapping[key] = _parse_value(rest, path=path, line=ln)
        elif i < len(lines) and lines[i][0] > indent:
            mapping[key], i = _parse_block(lines, i, path)
        else:
            mapping[key] = None
    return mapping, i


def parse_structured(text: str, *, path: Optional[str] = None) -> Any:
    """Parse a rendered document: JSON if it starts with ``{``, else the
    restricted YAML subset."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise IngestError(f"invalid JSON: {exc.msg}", path=path,
                              line=exc.lineno) from None

    lines: List[Tuple[int, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        without_comment = raw
        if not raw.lstrip().startswith("#"):
            # strip trailing comments outside quotes (restricted: no
            # '#' inside unquoted scalars)
            in_quote = ""
            for pos, ch in enumerate(raw):
                if in_quote:
                    if ch == in_quote:
                        in_quote = ""
                elif ch in "\"'":
                    in_quote = ch
                elif ch == "#":
                    without_comment = raw[:pos]
                    break
        else:
            continue
        if not without_comment.strip():
            continue
        stripped_line = without_comment.lstrip(" ")
        indent = len(without_comment) - len(stripped_line)
        if stripped_line.startswith("\t") or "\t" in without_comment[:indent]:
            raise IngestError("tab indentation is not allowed "
                              "(use spaces)", path=path, line=lineno)
        lines.append((indent, stripped_line.rstrip(), lineno))

    if not lines:
        raise IngestError("empty document", path=path)
    if lines[0][0] != 0:
        raise IngestError("top-level content must not be indented",
                          path=path, line=lines[0][2])
    value, consumed = _parse_block(lines, 0, path)
    if consumed != len(lines):
        raise IngestError("unparsable line (bad indentation?)",
                          path=path, line=lines[consumed][2])
    return value


# ----------------------------------------------------------------------
# stage 3: build a workflow from the parsed task list
# ----------------------------------------------------------------------
def _as_id_list(value: Any, what: str, *, path: Optional[str]) -> List[str]:
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    if isinstance(value, (str, int, float)):
        return [str(value)]
    raise IngestError(f"{what} must be a task id or a list of ids",
                      path=path)


_TASK_KEYS = {"id", "work", "memory", "after", "before", "cost"}


def build_from_document(doc: Any, *, name: Optional[str] = None,
                        path: Optional[str] = None) -> Workflow:
    """Turn a parsed template document into a validated workflow."""
    if not isinstance(doc, dict) or not isinstance(doc.get("tasks"), list):
        raise IngestError(
            "template must render to a mapping with a 'tasks' list",
            path=path)
    wf_name = name or doc.get("name") or "workflow"
    asm = WorkflowAssembler(str(wf_name), path=path)

    entries: List[Dict[str, Any]] = []
    for entry in doc["tasks"]:
        if not isinstance(entry, dict) or "id" not in entry:
            raise IngestError(
                f"every task needs an 'id' field, got {entry!r}", path=path)
        unknown = set(entry) - _TASK_KEYS
        if unknown:
            raise IngestError(
                f"task {entry['id']!r}: unknown field(s) "
                + ", ".join(sorted(map(repr, unknown))), path=path)
        tid = str(entry["id"])
        work = entry.get("work", 1.0)
        memory = entry.get("memory", 0.0)
        for label, value in (("work", work), ("memory", memory)):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise IngestError(
                    f"task {tid!r}: {label} must be a number, got "
                    f"{value!r}", path=path)
        asm.add_task(tid, float(work), float(memory))
        entries.append(entry)

    for entry in entries:
        tid = str(entry["id"])
        cost = entry.get("cost", 0.0)
        if isinstance(cost, bool) or not isinstance(cost, (int, float)):
            raise IngestError(
                f"task {tid!r}: cost must be a number, got {cost!r}",
                path=path)
        for parent in _as_id_list(entry.get("after"),
                                  f"task {tid!r}: 'after'", path=path):
            asm.add_edge(parent, tid, float(cost))
        for child in _as_id_list(entry.get("before"),
                                 f"task {tid!r}: 'before'", path=path):
            asm.add_edge(tid, child, 0.0)
    return asm.finish()


def sniff(text: str) -> bool:
    if "{{" in text or "{%" in text:
        return True
    return bool(re.search(r"(?m)^tasks:\s*$", text))


def import_template(text: str, *, name: Optional[str] = None,
                    path: Optional[str] = None, data: Any = None) -> Workflow:
    rendered = render_template(text, data, path=path)
    doc = parse_structured(rendered, path=path)
    return build_from_document(doc, name=name, path=path)
