"""Fig. 5: relative makespan per workflow family as size grows.

Paper: the fanned-out families (BWA, BLAST, Seismology) are consistently
easy (low relative makespan); SoyKB and Epigenomics are hardest but
improve with size as parallelism appears.
"""

from benchutil import bench_kwargs, show

from repro.experiments import figures


def test_fig5_family_series(benchmark):
    kwargs = bench_kwargs()
    kwargs["families"] = ("blast", "bwa", "soykb", "epigenomics")
    result = benchmark.pedantic(
        figures.fig5, kwargs=kwargs, rounds=1, iterations=1)
    show(result, "Fig. 5: relative makespan (%) per family vs size")
    by_family = {}
    for r in result["rows"]:
        by_family.setdefault(r["family"], []).append(r["relative_makespan_pct"])
    import math
    geo = {f: math.exp(sum(math.log(max(v, 1e-9)) for v in vals) / len(vals))
           for f, vals in by_family.items()}
    # fanned-out families beat the chain-like ones (paper Sec. 5.2.5)
    assert geo["blast"] < geo["soykb"]
    assert geo["bwa"] < geo["epigenomics"]
