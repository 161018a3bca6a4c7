"""Benchmark: the vectorized array kernels vs the dict reference kernels.

Runs the ``repro profile`` suite (:mod:`repro.core.profile`) and enforces
the PR's perf-trajectory contract:

* **equivalence** — every case's outputs are bit-for-bit identical
  across kernels (the same check the differential suite makes on small
  random DAGs, here at benchmark scale);
* **absolute floor** — the gated headline cases (full bottom-weight
  passes on the fan and wide shapes) clear :data:`SPEEDUP_FLOOR` (5x);
* **no regression** — when the committed ``BENCH_core.json`` baseline is
  present at the repo root, every case keeps at least half its committed
  speedup (the same gate CI's perf-gates leg runs via ``repro profile
  --check``). It compares measured speedups against committed ones, so it
  is marked ``wallclock`` and deselected by default (``-m wallclock``
  runs it).

Environment knobs:

* ``REPRO_FULL=1``       — run at the acceptance scale (n=100000)
  instead of the reduced default (n=20000);
* ``REPRO_BENCH_OUT=f``  — also write the JSON report to ``f`` (use this
  to refresh the committed baseline from a quiet machine).
"""

from __future__ import annotations

import os

import pytest

from repro.core.profile import (
    DEFAULT_N,
    SPEEDUP_FLOOR,
    compare_to_baseline,
    load_report,
    run_profile,
    write_report,
)

BASELINE = os.path.join(os.path.dirname(__file__), "..", "BENCH_core.json")

#: reduced scale used by default (acceptance scale via REPRO_FULL)
BENCH_N = 20_000


@pytest.fixture(scope="module")
def report():
    n = DEFAULT_N if os.environ.get("REPRO_FULL") == "1" else BENCH_N
    rep = run_profile(n=n, repeats=3)
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        write_report(rep, out)
    print(f"\nkernel profile (n={n}):")
    for name, case in rep["cases"].items():
        print(f"  {name:<22} reference {case['reference_s']*1e3:9.2f}ms  "
              f"array {case['array_s']*1e3:8.2f}ms  "
              f"speedup {case['speedup']:6.1f}x  equal={case['equal']}")
    return rep


def test_kernels_bit_for_bit_equal(report):
    """Every case produced identical outputs from both kernels."""
    unequal = [n for n, c in report["cases"].items() if not c["equal"]]
    assert not unequal, f"kernels disagree on: {unequal}"


def test_gated_cases_clear_absolute_floor(report):
    """The headline full-pass cases are >= 5x over the reference kernel."""
    for name, case in report["cases"].items():
        if case["gated"]:
            assert case["speedup"] >= SPEEDUP_FLOOR, (
                f"{name}: {case['speedup']:.2f}x below the "
                f"{SPEEDUP_FLOOR:g}x floor")


@pytest.mark.wallclock
def test_no_regression_vs_committed_baseline(report):
    """Same gate as ``repro profile --check BENCH_core.json`` in CI."""
    if not os.path.exists(BASELINE):
        pytest.skip("no committed BENCH_core.json baseline")
    problems = compare_to_baseline(report, load_report(BASELINE))
    assert not problems, "; ".join(problems)
