"""Section 5.2.4: four-times-bigger computational demands.

Paper: scaling every w_u by 4 leaves the relative makespans "virtually
identical" (e.g. real workflows 62.8% vs 61.73%).
"""

from benchutil import bench_kwargs, show

from repro.experiments import figures


def test_demand_4x_invariance(benchmark):
    result = benchmark.pedantic(
        figures.demand4x, kwargs=bench_kwargs(), rounds=1, iterations=1)
    show(result, "Sec. 5.2.4: relative makespan (%), 1x vs 4x workloads")
    import math
    for r in result["rows"]:
        a, b = r["relative_makespan_pct_1x"], r["relative_makespan_pct_4x"]
        if math.isnan(a) or math.isnan(b):
            continue
        # "virtually identical": within 15 percentage points on tiny corpora
        assert abs(a - b) < 15.0, r
