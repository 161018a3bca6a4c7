"""Table 4: average relative and absolute running times per workflow set.

The paper's runtime trend (relative runtime falls as workflows grow) is a
comparison of wall-clock times, so it is marked ``wallclock``: the
default run deselects it, and CI's perf-gates leg runs it on its own with
``pytest -m wallclock``, each side the minimum of three runs.
"""

import pytest
from benchutil import bench_kwargs, show

from repro.experiments import figures

#: runs of the whole table behind the trend check; each workflow set's
#: relative runtime is the minimum over them
TREND_RUNS = 3


def test_table4_runtime_summary(benchmark):
    result = benchmark.pedantic(
        figures.table4, kwargs=bench_kwargs(), rounds=1, iterations=1)
    show(result, "Table 4: runtimes of DagHetPart (relative to DagHetMem)")
    rows = {r["workflow_set"]: r for r in result["rows"]}
    assert set(rows) <= {"real", "small", "mid", "big"}
    for r in rows.values():
        assert r["avg_absolute_runtime_sec"] >= 0.0


@pytest.mark.wallclock
def test_table4_relative_runtime_falls_with_size():
    """The paper's trend: relative runtime is no higher on the big
    workflows than on the real ones (min of :data:`TREND_RUNS` runs)."""
    best = {}
    for _ in range(TREND_RUNS):
        for r in figures.table4(**bench_kwargs())["rows"]:
            cat = r["workflow_set"]
            best[cat] = min(best.get(cat, float("inf")),
                            r["avg_relative_runtime"])
    print(f"\nmin-of-{TREND_RUNS} relative runtimes: {best}")
    assert "real" in best and "big" in best
    assert best["big"] <= best["real"]
