"""Table 2: the default cluster configuration."""

from benchutil import show

from repro.experiments import figures


def test_table2_default_cluster(benchmark):
    result = benchmark.pedantic(figures.table2, rounds=1, iterations=1)
    show(result, "Table 2: default cluster (6 nodes of each kind)")
    rows = result["rows"]
    assert [r["processor"] for r in rows] == ["local", "A1", "A2", "N1", "N2", "C2"]
    assert rows[-1]["memory_gb"] == 192.0
