"""Tests of the ASCII plotting helpers."""

import pytest

from repro.experiments.plotting import (
    ascii_bar_chart,
    ascii_line_plot,
    figure_series,
    plot_rows,
)


class TestLinePlot:
    def test_renders_all_series_markers(self):
        text = ascii_line_plot({
            "alpha": {1.0: 10.0, 2.0: 20.0},
            "beta": {1.0: 5.0, 2.0: 25.0},
        }, title="T")
        assert "T" in text
        assert "o=alpha" in text
        assert "x=beta" in text

    def test_axis_labels(self):
        text = ascii_line_plot({"s": {0.0: 0.0, 1.0: 1.0}},
                               x_label="n_tasks", y_label="makespan")
        assert "x: n_tasks" in text
        assert "y: makespan" in text

    def test_extremes_on_border(self):
        text = ascii_line_plot({"s": {0.0: 0.0, 10.0: 100.0}}, height=8)
        lines = [l for l in text.splitlines() if "|" in l]
        assert "o" in lines[0]        # max y in the top row
        assert "o" in lines[-1]       # min y in the bottom row

    def test_empty(self):
        assert "(no data)" in ascii_line_plot({})

    def test_constant_series_no_division_error(self):
        text = ascii_line_plot({"s": {1.0: 5.0, 2.0: 5.0}})
        assert "o" in text


class TestBarChart:
    def test_bars_proportional(self):
        text = ascii_bar_chart({"a": 10.0, "b": 5.0}, width=10)
        lines = text.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_empty(self):
        assert "(no data)" in ascii_bar_chart({})

    def test_value_formatting(self):
        text = ascii_bar_chart({"x": 3.14159}, fmt="{:.2f}")
        assert "3.14" in text


class TestFigureSeries:
    def test_pivot(self):
        rows = [
            {"family": "blast", "n_tasks": 10, "rel": 80.0},
            {"family": "blast", "n_tasks": 20, "rel": 70.0},
            {"family": "soykb", "n_tasks": 10, "rel": 95.0},
        ]
        series = figure_series(rows, "n_tasks", "rel", "family")
        assert series["blast"] == {10.0: 80.0, 20.0: 70.0}
        assert series["soykb"] == {10.0: 95.0}


class TestPlotRows:
    LEVELS = ("nohet", "lesshet", "default", "morehet")

    def _markers(self, chart):
        grid = [line.split("|")[1] for line in chart.splitlines()
                if line.count("|") == 2]
        return {m: sum(row.count(m) for row in grid) for m in "ox"}

    def test_heterogeneity_levels_are_one_line_per_workflow_type(self):
        rows = [{"heterogeneity": level, "workflow_type": cat,
                 "relative_makespan_pct": 50.0 + 10 * i + (5 if cat == "big"
                                                           else 0),
                 "absolute_makespan": 1.0}
                for i, level in enumerate(self.LEVELS)
                for cat in ("real", "big")]
        chart = plot_rows("fig4", rows)
        assert chart.splitlines()[1] == "o=real  x=big"
        assert "0=nohet 1=lesshet 2=default 3=morehet" in chart
        assert self._markers(chart) == {"o": 4, "x": 4}

    def test_cluster_sizes_are_one_line_per_workflow_type(self):
        rows = [{"n_cpus": n, "workflow_type": cat,
                 "relative_makespan_pct": n + (7.0 if cat == "big" else 0.0)}
                for n in (18, 36, 60) for cat in ("real", "big")]
        chart = plot_rows("fig3_right", rows)
        assert "x: n_cpus" in chart
        assert self._markers(chart) == {"o": 3, "x": 3}

    def test_rows_without_a_chart(self):
        assert plot_rows("fig9", [{"workflow_type": "real",
                                   "runtime_sec": 1.0}]) == ""
        assert plot_rows("x", []) == ""
