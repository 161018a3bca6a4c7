"""Corpus helpers shared by the per-figure benchmarks.

Each benchmark regenerates one table or figure of the paper on a reduced
corpus (so the whole suite runs in minutes) and prints the rows it
produced. Environment knobs:

* ``REPRO_FULL=1``   — run the paper's workflow sizes (hours, full shape);
* ``REPRO_SCALE=n``  — divide the paper's sizes by ``n`` instead;
* ``REPRO_BENCH_FAMILIES`` — comma-separated family subset.

The relative-makespan *shapes* these produce are the reproduction's
comparison with the paper; a committed record of it is ROADMAP item 1(b).

The module has a name of its own (not ``conftest``) so that the bench
files can import it whichever ``conftest`` pytest put on ``sys.path``
first, e.g. when ``benchmarks/`` and ``tests/`` are collected together.
"""

from __future__ import annotations

import os

from repro.core.heuristic import DagHetPartConfig

#: reduced corpus used by default (full corpus via REPRO_FULL)
BENCH_SIZES = {"small": (24, 60), "mid": (120,), "big": (200,)}


def bench_families():
    env = os.environ.get("REPRO_BENCH_FAMILIES")
    if env:
        return tuple(f.strip() for f in env.split(",") if f.strip())
    return ("blast", "genome", "soykb")


def bench_kwargs():
    """Corpus kwargs passed to every figure driver."""
    kwargs = dict(seed=0, families=bench_families(),
                  config=DagHetPartConfig(k_prime_strategy="doubling"))
    if os.environ.get("REPRO_FULL") != "1":
        kwargs["sizes"] = BENCH_SIZES
    return kwargs


def show(result, title, columns=None):
    """Print a figure's rows under the benchmark output."""
    from repro.experiments.report import format_table
    print()
    print(format_table(result["rows"], columns=columns, title=title))
