"""Hardened GraphViz DOT importer (nextflow ``-with-dag`` flavour).

The paper's real workflows arrive as DOT digraphs exported by nextflow.
The original reader (``workflow/io.py``) was a line-regex affair that
silently skipped anything it did not recognize — a malformed file loaded
as an empty workflow and failed much later, deep inside a heuristic.
This importer is a small scanner/parser instead:

* **quoted identifiers** with spaces and ``\\"``/``\\\\`` escapes;
* ``//``, ``#`` and ``/* ... */`` comments (also *inside* statements,
  never inside quoted strings);
* **edge chains** ``a -> b -> c [cost=2]`` (the attribute list applies to
  every edge of the chain);
* **node-only statements** (``"long task name";``) with ``work`` /
  ``memory`` attributes, last declaration wins (DOT semantics);
* anything unparsable raises :class:`~repro.utils.errors.IngestError`
  with the offending file and line — never a silent empty workflow.

Recognized attributes: ``work``/``memory`` on nodes, ``cost`` (alias
``weight``) on edges; purely cosmetic attributes (labels, shapes, ...)
are ignored as before.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.ingest.normalize import WorkflowAssembler
from repro.utils.errors import IngestError
from repro.workflow.graph import Workflow

#: statement keywords that carry no graph content
_SKIP_KEYWORDS = {"graph", "node", "edge", "digraph", "strict"}


def sniff(text: str) -> bool:
    head = text[:4096]
    return "digraph" in head or ("->" in head and "{" in head)


class _Token:
    __slots__ = ("kind", "value", "line")

    def __init__(self, kind: str, value: str, line: int):
        self.kind = kind  # "id" | "qid" | "sym" | "end"
        self.value = value
        self.line = line

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"_Token({self.kind}, {self.value!r}, line={self.line})"


def _tokenize(text: str, path: Optional[str]) -> List[_Token]:
    """Scan DOT text into tokens, stripping comments, keeping line numbers.

    Statement separators (``;`` and newlines outside ``[...]`` lists) are
    emitted as ``end`` tokens; the parser treats runs of them as one.
    """
    tokens: List[_Token] = []
    i, line, n = 0, 1, len(text)
    depth = 0  # inside [...] newlines do not end the statement
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            if depth == 0:
                tokens.append(_Token("end", "\n", line - 1))
            i += 1
        elif ch in " \t\r":
            i += 1
        elif ch == "#" or (ch == "/" and i + 1 < n and text[i + 1] == "/"):
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and i + 1 < n and text[i + 1] == "*":
            start_line = line
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n
                                 and text[i + 1] == "/"):
                if text[i] == "\n":
                    line += 1
                i += 1
            if i >= n:
                raise IngestError("unterminated /* comment", path=path,
                                  line=start_line)
            i += 2
        elif ch == '"':
            start_line = line
            i += 1
            chars: List[str] = []
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n and text[i + 1] in '"\\':
                    chars.append(text[i + 1])
                    i += 2
                    continue
                if text[i] == "\n":
                    line += 1
                chars.append(text[i])
                i += 1
            if i >= n:
                raise IngestError("unterminated quoted identifier",
                                  path=path, line=start_line)
            i += 1
            tokens.append(_Token("qid", "".join(chars), start_line))
        elif ch == "-" and i + 1 < n and text[i + 1] == ">":
            tokens.append(_Token("sym", "->", line))
            i += 2
        elif ch == ";":
            tokens.append(_Token("end", ";", line))
            i += 1
        elif ch in "{}":
            # braces delimit statements too, so one-line digraphs
            # ('digraph g { a -> b; }') split header/body correctly
            tokens.append(_Token("sym", ch, line))
            tokens.append(_Token("end", ch, line))
            i += 1
        elif ch in "[]=,":
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth = max(0, depth - 1)
            tokens.append(_Token("sym", ch, line))
            i += 1
        else:
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_.:/%-"):
                # stop a bare id at an arrow, but allow '-' inside names
                if text[j] == "-" and j + 1 < n and text[j + 1] == ">":
                    break
                j += 1
            if j == i:
                raise IngestError(f"unexpected character {ch!r}",
                                  path=path, line=line)
            tokens.append(_Token("id", text[i:j], line))
            i = j
    tokens.append(_Token("end", "", line))
    return tokens


def _split_statements(tokens: List[_Token]) -> List[List[_Token]]:
    statements: List[List[_Token]] = []
    current: List[_Token] = []
    for token in tokens:
        if token.kind == "end":
            if current:
                statements.append(current)
                current = []
        else:
            current.append(token)
    if current:
        statements.append(current)
    return statements


def _parse_attrs(tokens: List[_Token], start: int, path: Optional[str],
                 ) -> Tuple[dict, int]:
    """Parse ``[key=value, ...]`` starting at ``tokens[start]`` == '['."""
    attrs: dict = {}
    i = start + 1
    while i < len(tokens):
        token = tokens[i]
        if token.kind == "sym" and token.value == "]":
            return attrs, i + 1
        if token.kind == "sym" and token.value in (",", ";"):
            i += 1
            continue
        if token.kind in ("id", "qid"):
            if (i + 2 < len(tokens) and tokens[i + 1].kind == "sym"
                    and tokens[i + 1].value == "="
                    and tokens[i + 2].kind in ("id", "qid")):
                attrs[token.value.lower()] = tokens[i + 2].value
                i += 3
                continue
            # bare attribute name (e.g. [fixedsize]) — ignore
            i += 1
            continue
        raise IngestError(
            f"unparsable attribute list near {token.value!r}",
            path=path, line=token.line)
    raise IngestError("unterminated attribute list ('[' without ']')",
                      path=path, line=tokens[start].line)


def _attr_float(attrs: dict, *names: str) -> Optional[float]:
    for key in names:
        if key in attrs:
            try:
                return float(attrs[key])
            except (TypeError, ValueError):
                continue
    return None


def import_dot(text: str, *, name: Optional[str] = None,
               path: Optional[str] = None, data: Any = None) -> Workflow:
    tokens = _tokenize(text, path)
    statements = _split_statements(tokens)

    graph_name: Optional[str] = None
    asm: Optional[WorkflowAssembler] = None

    def assembler() -> WorkflowAssembler:
        nonlocal asm
        if asm is None:
            asm = WorkflowAssembler(str(name or graph_name or "workflow"),
                                    path=path, allow_implicit_tasks=True)
        return asm

    for statement in statements:
        head = statement[0]
        # strip a leading 'strict' keyword
        if (head.kind == "id" and head.value.lower() == "strict"
                and len(statement) > 1):
            statement = statement[1:]
            head = statement[0]
        if head.kind == "sym" and head.value in ("{", "}"):
            continue
        if head.kind == "id" and head.value.lower() in ("digraph", "graph") \
                and any(t.kind == "sym" and t.value == "{" for t in statement):
            # header: digraph [name] {  — record the internal name
            for token in statement[1:]:
                if token.kind in ("id", "qid") and token.value != "{":
                    graph_name = token.value
                    break
            continue
        if head.kind == "id" and head.value.lower() == "subgraph":
            raise IngestError("subgraph statements are not supported",
                              path=path, line=head.line)
        if head.kind == "id" and head.value.lower() in _SKIP_KEYWORDS:
            continue  # node/edge/graph default-attribute statements
        # ID = value  (graph attribute assignment) — ignore
        if (len(statement) >= 3 and head.kind in ("id", "qid")
                and statement[1].kind == "sym" and statement[1].value == "="):
            continue

        # node or edge-chain statement: ID (-> ID)* [attrs]
        ids: List[Tuple[str, int]] = []
        i = 0
        attrs: dict = {}
        expect_id = True
        while i < len(statement):
            token = statement[i]
            if expect_id:
                if token.kind not in ("id", "qid"):
                    raise IngestError(
                        f"unparsable statement near {token.value!r}",
                        path=path, line=token.line)
                ids.append((token.value, token.line))
                expect_id = False
                i += 1
            elif token.kind == "sym" and token.value == "->":
                expect_id = True
                i += 1
            elif token.kind == "sym" and token.value == "[":
                attrs, i = _parse_attrs(statement, i, path)
            else:
                raise IngestError(
                    f"unparsable statement near {token.value!r}",
                    path=path, line=token.line)
        if expect_id:
            raise IngestError("edge statement ends with a dangling '->'",
                              path=path, line=statement[-1].line)

        if len(ids) == 1:
            # node statement; last declaration wins (DOT semantics)
            node, line = ids[0]
            work = _attr_float(attrs, "work")
            memory = _attr_float(attrs, "memory")
            wf = assembler().workflow
            if node in wf:
                if work is not None:
                    wf.set_work(node, work)
                if memory is not None:
                    wf.set_memory(node, memory)
            else:
                assembler().add_task(
                    node, 1.0 if work is None else work, memory or 0.0,
                    line=line)
        else:
            cost = _attr_float(attrs, "cost", "weight")
            for (u, _), (v, lv) in zip(ids, ids[1:]):
                assembler().add_edge(u, v, 0.0 if cost is None else cost,
                                     line=lv)

    if asm is None:
        raise IngestError(
            "no graph statements found (empty or non-DOT input)", path=path)
    return asm.finish()
