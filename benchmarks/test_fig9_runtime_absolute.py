"""Fig. 9: absolute running time of DagHetPart by workflow type.

Paper: sub-second for real workflows, seconds for small, minutes for
mid/big (log-scale figure). At the reduced default scale everything is
seconds; the ordering real < small < mid < big must hold regardless.
"""

from benchutil import bench_kwargs, show

from repro.experiments import figures


def test_fig9_absolute_runtime(benchmark):
    result = benchmark.pedantic(
        figures.fig9, kwargs=bench_kwargs(), rounds=1, iterations=1)
    show(result, "Fig. 9: absolute DagHetPart runtime (seconds)")
    by_cat = {}
    for r in result["rows"]:
        by_cat.setdefault(r["workflow_type"], []).append(r["runtime_sec"])
    means = {cat: sum(v) / len(v) for cat, v in by_cat.items()}
    # scheduling time grows with workflow size category
    if "real" in means and "big" in means:
        assert means["real"] <= means["big"]
