"""Benchmark: the refinement suite on the (tiny) paper grid.

Two contracts are enforced, matching the acceptance criteria of the
local-search suite:

* **determinism + monotonicity** — with the same seed, ``anneal``
  reproduces its makespan bit-for-bit and never returns a worse one than
  its ``dag_het_part_sweep`` seed mapping;
* **delta-only pricing** — the instrumented full bottom-weight counter
  records *zero* passes during refinement (every Metropolis trial is
  priced by the incremental evaluator).

The printed table reports seed vs refined makespans per instance and the
``refinement_gain`` experiment rows (geometric-mean anneal/DagHetPart
ratios per workflow type).
"""

from __future__ import annotations

import importlib

from benchutil import BENCH_SIZES, bench_families, show

from repro.api import AnnealConfig
from repro.core.anneal import anneal_refine
from repro.core.evaluator import MakespanEvaluator
from repro.core.heuristic import dag_het_part_sweep
from repro.experiments.instances import scaled_cluster_for
from repro.generators.families import generate_workflow
from repro.memdag.requirement import RequirementCache
from repro.platform.presets import default_cluster

makespan_mod = importlib.import_module("repro.core.makespan")

ANNEAL = AnnealConfig(seed=0, iterations=800, restarts=2)


def _seeded_state(family: str, n: int):
    """The quotient the annealer starts from: best DagHetPart sweep mapping."""
    wf = generate_workflow(family, n, seed=6)
    cluster = scaled_cluster_for(wf, default_cluster())
    cache = RequirementCache(wf)
    outcome = dag_het_part_sweep(wf, cluster, cache=cache)
    q = outcome.mapping.to_quotient()
    return q, cluster, cache, outcome.mapping.makespan()


def test_refinement_zero_full_passes(benchmark):
    """Seed vs refined makespan per instance; zero full passes while refining."""
    rows = []

    def run():
        rows.clear()
        total_passes = 0
        for family in bench_families():
            q, cluster, cache, seed_mu = _seeded_state(family, 120)
            evaluator = MakespanEvaluator(q, cluster)  # init pass, pre-reset
            makespan_mod.reset_full_pass_counter()
            stats = anneal_refine(q, cluster, cache, config=ANNEAL,
                                  evaluator=evaluator)
            total_passes += makespan_mod.reset_full_pass_counter()
            rows.append({
                "instance": f"{family}-120",
                "seed_makespan": seed_mu,
                "refined_makespan": stats.final_makespan,
                "gain_pct": 100.0 * (1 - stats.final_makespan / seed_mu),
                "trials": stats.trials,
                "accepted": stats.accepted,
            })
        return total_passes

    passes = benchmark.pedantic(run, rounds=1, iterations=1)
    show({"rows": rows}, "refinement: seed vs annealed makespans")
    print(f"  full bottom-weight passes during refinement: {passes}")
    assert passes == 0  # every trial priced by the delta engine
    for row in rows:
        assert row["refined_makespan"] <= row["seed_makespan"]


def test_refinement_deterministic_per_seed():
    """The same AnnealConfig.seed reproduces the refinement bit-for-bit."""
    for family in bench_families():
        outcomes = []
        for _ in range(2):
            q, cluster, cache, _ = _seeded_state(family, 120)
            stats = anneal_refine(q, cluster, cache, config=ANNEAL)
            outcomes.append((stats.final_makespan, stats.trials,
                             stats.accepted, stats.improved))
        assert outcomes[0] == outcomes[1]


def test_refinement_gain_table(benchmark):
    """The refinement_gain experiment over the reduced corpus."""
    from repro.experiments import figures
    from repro.core.heuristic import DagHetPartConfig

    result = benchmark.pedantic(
        lambda: figures.refinement_gain(
            seed=0, families=bench_families(), sizes=BENCH_SIZES,
            config=DagHetPartConfig(k_prime_strategy="doubling"),
            anneal_config=AnnealConfig(seed=0, iterations=400,
                                       k_prime_strategy="doubling")),
        rounds=1, iterations=1)
    show(result, "refinement_gain (anneal vs DagHetPart seed, %)")
    assert result["rows"]
    for row in result["rows"]:
        # never worse than the seed: every geometric mean is <= 100%
        assert row["anneal_vs_daghetpart_pct"] <= 100.0 + 1e-9

