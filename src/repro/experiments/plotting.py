"""Dependency-free ASCII plots for the experiment series.

The evaluation environment has no plotting stack, so the figure drivers
render their series as text: :func:`ascii_line_plot` draws multi-series
scatter/line charts with axis labels (used by the CLI and by
``scripts/render_figures.py``), :func:`ascii_bar_chart` draws labelled bars.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

Series = Mapping[float, float]

_MARKERS = "ox+*#@%&"


def ascii_line_plot(series: Mapping[str, Series], width: int = 64,
                    height: int = 16, title: str = "",
                    x_label: str = "", y_label: str = "") -> str:
    """Render ``{name: {x: y}}`` as an ASCII scatter chart.

    Each series gets a marker; collisions show the later series' marker.
    Returns a multi-line string.
    """
    points: List[Tuple[str, float, float]] = []
    for name, xy in series.items():
        for x, y in xy.items():
            points.append((name, float(x), float(y)))
    if not points:
        return f"{title}\n(no data)"

    xs = [p[1] for p in points]
    ys = [p[2] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    marker_of = {name: _MARKERS[i % len(_MARKERS)]
                 for i, name in enumerate(series)}
    for name, x, y in points:
        col = int((x - x_lo) / x_span * (width - 1))
        row = height - 1 - int((y - y_lo) / y_span * (height - 1))
        grid[row][col] = marker_of[name]

    lines: List[str] = []
    if title:
        lines.append(title)
    legend = "  ".join(f"{marker_of[n]}={n}" for n in series)
    lines.append(legend)
    y_hi_label = f"{y_hi:.4g}"
    y_lo_label = f"{y_lo:.4g}"
    gutter = max(len(y_hi_label), len(y_lo_label))
    for i, row in enumerate(grid):
        if i == 0:
            prefix = y_hi_label.rjust(gutter)
        elif i == height - 1:
            prefix = y_lo_label.rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(f"{prefix} |{''.join(row)}|")
    x_axis = f"{' ' * gutter}  {str(f'{x_lo:.4g}').ljust(width // 2)}" \
             f"{f'{x_hi:.4g}'.rjust(width - width // 2)}"
    lines.append(x_axis)
    if x_label or y_label:
        lines.append(f"{' ' * gutter}  x: {x_label}   y: {y_label}")
    return "\n".join(lines)


def ascii_bar_chart(values: Mapping[str, float], width: int = 50,
                    title: str = "", fmt: str = "{:.1f}") -> str:
    """Horizontal bar chart of ``{label: value}`` (non-negative values)."""
    if not values:
        return f"{title}\n(no data)"
    peak = max(values.values())
    label_width = max(len(str(k)) for k in values)
    lines = [title] if title else []
    for label, value in values.items():
        bar_len = 0 if peak <= 0 else int(round(value / peak * width))
        lines.append(f"{str(label).rjust(label_width)} |"
                     f"{'#' * bar_len}{' ' * (width - bar_len)}| "
                     f"{fmt.format(value)}")
    return "\n".join(lines)


def figure_series(rows: Sequence[Dict], x_key: str, y_key: str,
                  group_key: str) -> Dict[str, Dict[float, float]]:
    """Pivot figure rows into the ``{group: {x: y}}`` shape plots expect."""
    out: Dict[str, Dict[float, float]] = {}
    for row in rows:
        out.setdefault(str(row[group_key]), {})[float(row[x_key])] = float(row[y_key])
    return out
