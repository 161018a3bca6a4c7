"""Fig. 8: running time of DagHetPart relative to DagHetMem.

Paper (Table 4): ~406x on tiny real workflows (both sub-second), 1.63x on
small, ~1x on middle, 0.85x on big — the baseline's whole-graph optimal
traversal dominates at scale while DagHetPart traverses only blocks.
"""

from benchutil import bench_kwargs, show

from repro.experiments import figures


def test_fig8_relative_runtime(benchmark):
    result = benchmark.pedantic(
        figures.fig8, kwargs=bench_kwargs(), rounds=1, iterations=1)
    show(result, "Fig. 8: DagHetPart runtime / DagHetMem runtime per workflow")
    assert result["rows"]
    for row in result["rows"]:
        assert row["relative_runtime"] > 0
