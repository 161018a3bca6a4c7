"""Fig. 3: relative makespan of DagHetPart vs DagHetMem.

Left: by workflow type on the default cluster (paper: geometric mean 41%,
i.e. 2.44x better, improving with workflow size). Right: across cluster
sizes 18/36/60 (paper: bigger clusters help more, up to ~5x on big
workflows).
"""

from benchutil import bench_kwargs, show

from repro.experiments import figures


def test_fig3_left_relative_makespan_by_type(benchmark):
    result = benchmark.pedantic(
        figures.fig3_left, kwargs=bench_kwargs(), rounds=1, iterations=1)
    show(result, "Fig. 3 (left): relative makespan (%) by workflow type")
    rows = {r["workflow_type"]: r["relative_makespan_pct"] for r in result["rows"]}
    # DagHetPart must beat the baseline overall (paper: 41%)
    assert rows["all"] < 100.0
    # synthetic categories must show a clear win
    for cat in ("small", "mid", "big"):
        if cat in rows:
            assert rows[cat] < 90.0


def test_fig3_right_cluster_sizes(benchmark):
    result = benchmark.pedantic(
        figures.fig3_right, kwargs=bench_kwargs(), rounds=1, iterations=1)
    show(result, "Fig. 3 (right): relative makespan (%) vs cluster size")
    # larger clusters give at least as much improvement on big workflows
    big = {r["n_cpus"]: r["relative_makespan_pct"]
           for r in result["rows"] if r["workflow_type"] == "big"}
    if {18, 60} <= set(big):
        assert big[60] <= big[18] + 5.0  # small tolerance for tiny corpora
