"""Section 5.2.2: scheduling success counts per cluster size.

Paper: the large cluster schedules everything; the default misses two
workflows; the small cluster misses several for both algorithms.
"""

from benchutil import bench_kwargs, show

from repro.experiments import figures


def test_success_counts(benchmark):
    result = benchmark.pedantic(
        figures.success_counts_experiment, kwargs=bench_kwargs(),
        rounds=1, iterations=1)
    show(result, "Sec. 5.2.2: scheduled workflows per cluster size")
    rows = result["rows"]
    # success never decreases when the cluster grows (per type+algorithm)
    by_key = {}
    order = {"small-18": 0, "default-36": 1, "large-60": 2}
    for r in rows:
        key = (r["workflow_type"], r["algorithm"])
        by_key.setdefault(key, {})[order[r["cluster"]]] = (
            r["scheduled"], r["total"])
    for key, series in by_key.items():
        if 0 in series and 2 in series:
            small_rate = series[0][0] / series[0][1]
            large_rate = series[2][0] / series[2][1]
            assert large_rate >= small_rate - 1e-9, key
