"""Fig. 6: absolute DagHetPart makespans per family vs size.

Paper: roughly linear growth in workflow size for most families.
"""

from benchutil import bench_kwargs, show

from repro.experiments import figures


def test_fig6_absolute_makespans(benchmark):
    result = benchmark.pedantic(
        figures.fig6, kwargs=bench_kwargs(), rounds=1, iterations=1)
    show(result, "Fig. 6: absolute DagHetPart makespan per family vs size")
    # makespans grow with workflow size within each family
    by_family = {}
    for r in result["rows"]:
        by_family.setdefault(r["family"], []).append((r["n_tasks"], r["makespan"]))
    for family, series in by_family.items():
        series.sort()
        if len(series) >= 2:
            assert series[-1][1] > series[0][1], family
