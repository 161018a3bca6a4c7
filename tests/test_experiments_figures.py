"""Smoke + shape tests for every figure/table driver (tiny corpora).

These check the *structure* of each experiment's output; the shape of the
numbers against the paper is checked by the figure benchmarks in ``benchmarks/``.
"""

import pytest

from repro.core.heuristic import DagHetPartConfig
from repro.experiments import figures

TINY = dict(
    sizes={"small": (24,), "mid": (40,), "big": (56,)},
    families=("blast", "soykb"),
    config=DagHetPartConfig(k_prime_values=(1, 4, 12)),
    seed=0,
)


class TestStaticTables:
    def test_table2_rows(self):
        rows = figures.table2()["rows"]
        assert len(rows) == 6
        assert rows[-1] == {"processor": "C2", "speed_ghz": 32.0, "memory_gb": 192.0}

    def test_table3_rows(self):
        rows = figures.table3()["rows"]
        assert len(rows) == 6
        assert rows[0]["morehet"] == "local*"
        assert rows[-1]["memory'"] == 192.0


class TestFig3:
    def test_left_structure(self):
        out = figures.fig3_left(**TINY)
        types = [r["workflow_type"] for r in out["rows"]]
        assert "all" in types
        assert all(0 < r["relative_makespan_pct"] <= 200 for r in out["rows"])

    def test_right_structure(self):
        out = figures.fig3_right(**TINY)
        cpus = {r["n_cpus"] for r in out["rows"]}
        assert cpus == {18, 36, 60}


class TestFig4:
    def test_heterogeneity_levels_present(self):
        out = figures.fig4(**TINY)
        levels = {r["heterogeneity"] for r in out["rows"]}
        assert levels == {"nohet", "lesshet", "default", "morehet"}
        for row in out["rows"]:
            assert row["absolute_makespan"] > 0


class TestFig5And6:
    def test_fig5_per_family_series(self):
        out = figures.fig5(**TINY)
        fams = {r["family"] for r in out["rows"]}
        assert fams <= {"blast", "soykb"}
        for row in out["rows"]:
            assert row["n_tasks"] > 0

    def test_fig6_absolute(self):
        out = figures.fig6(**TINY)
        assert all(r["makespan"] > 0 for r in out["rows"])


class TestFig7:
    def test_bandwidth_series(self):
        out = figures.fig7(betas=(0.5, 2.0), **TINY)
        betas = {r["bandwidth"] for r in out["rows"]}
        assert betas == {0.5, 2.0}


class TestRuntimes:
    def test_fig8_relative_runtime(self):
        out = figures.fig8(**TINY)
        assert out["rows"]
        for row in out["rows"]:
            assert row["relative_runtime"] > 0

    def test_fig9_absolute_runtime(self):
        out = figures.fig9(**TINY)
        assert all(r["runtime_sec"] >= 0 for r in out["rows"])

    def test_table4_categories(self):
        out = figures.table4(**TINY)
        cats = [r["workflow_set"] for r in out["rows"]]
        assert cats == ["real", "small", "mid", "big"]


class TestSectionExperiments:
    def test_success_counts(self):
        out = figures.success_counts_experiment(**TINY)
        for row in out["rows"]:
            assert 0 <= row["scheduled"] <= row["total"]
        clusters = {r["cluster"] for r in out["rows"]}
        assert clusters == {"small-18", "default-36", "large-60"}

    def test_demand4x_columns(self):
        out = figures.demand4x(**TINY)
        for row in out["rows"]:
            assert "relative_makespan_pct_1x" in row
            assert "relative_makespan_pct_4x" in row

    def test_failure_report_structure(self):
        out = figures.failure_report(**TINY)
        assert out["rows"], "rows are never empty (placeholder when clean)"
        for row in out["rows"]:
            assert set(row) == {"instance", "workflow_type", "algorithm",
                                "failure_reason"}
        # every failed record is accounted for, with a structured reason
        failed = [r for r in out["records"] if not r.success]
        real_rows = [r for r in out["rows"] if r["instance"] != "(none)"]
        assert len(real_rows) == len(failed)
        for row in real_rows:
            assert row["failure_reason"]
