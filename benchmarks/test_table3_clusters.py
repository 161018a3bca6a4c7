"""Table 3: the MoreHet and LessHet cluster configurations."""

from benchutil import show

from repro.experiments import figures


def test_table3_heterogeneity_variants(benchmark):
    result = benchmark.pedantic(figures.table3, rounds=1, iterations=1)
    show(result, "Table 3: clusters with more / less heterogeneity")
    rows = result["rows"]
    assert len(rows) == 6
    # LessHet keeps the 192 top memory so big tasks still fit
    assert rows[-1]["memory'"] == 192.0
    # MoreHet doubles the big half: C2* has 384
    assert rows[-1]["memory*"] == 384.0
