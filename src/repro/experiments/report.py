"""Plain-text rendering of experiment results (the "figures" as tables)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence


def format_table(rows: Sequence[Dict[str, Any]], columns: Optional[Sequence[str]] = None,
                 title: str = "", floatfmt: str = "{:.2f}") -> str:
    """Render dict rows as an aligned ASCII table.

    Column order follows ``columns`` or the first row's key order. Floats
    go through ``floatfmt``; everything else through ``str``.
    """
    rows = list(rows)
    if not rows:
        return f"{title}\n(no data)" if title else "(no data)"
    cols = list(columns) if columns is not None else list(rows[0].keys())

    def cell(value: Any) -> str:
        if isinstance(value, float):
            return floatfmt.format(value)
        return str(value)

    rendered = [[cell(row.get(c, "")) for c in cols] for row in rows]
    widths = [max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)]
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in rendered:
        lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)
