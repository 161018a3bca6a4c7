"""Fig. 4: impact of platform heterogeneity (NoHet/LessHet/default/MoreHet).

Paper: relative makespans *grow* with more heterogeneity (the baseline
benefits from the stronger big-memory nodes), yet DagHetPart improves on
the baseline at every level, including the homogeneous cluster.
"""

from benchutil import bench_kwargs, show

from repro.experiments import figures


def test_fig4_heterogeneity_levels(benchmark):
    result = benchmark.pedantic(
        figures.fig4, kwargs=bench_kwargs(), rounds=1, iterations=1)
    show(result, "Fig. 4: relative (%) and absolute makespan vs heterogeneity")
    rows = result["rows"]
    levels = {r["heterogeneity"] for r in rows}
    assert levels == {"nohet", "lesshet", "default", "morehet"}
    # improvement over the baseline persists at every heterogeneity level
    # for the synthetic categories (paper Sec. 5.2.3)
    for r in rows:
        if r["workflow_type"] in ("small", "mid", "big"):
            assert r["relative_makespan_pct"] < 100.0 + 1e-6
