"""Benchmark: the incremental makespan engine vs full recomputation.

Two claims are enforced, matching the evaluator's contract:

* **equivalence** — DagHetPart with the evaluator returns bit-for-bit
  the same makespans as the full-recompute implementation across the
  fig3 corpus (reduced sizes by default, paper sizes via ``REPRO_FULL``);
* **work reduction** — during the Step-4 swap search on swap-heavy
  instances, the instrumented full-pass counter drops by at least 5x
  (in practice: two orders of magnitude — the delta path performs no
  full bottom-weight passes at all after initialization).
"""

from __future__ import annotations

import importlib
from dataclasses import asdict

from benchutil import bench_families, BENCH_SIZES

from repro.core.assignment import biggest_assign
from repro.core.evaluator import MakespanEvaluator
from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
from repro.core.merging import merge_unassigned_to_assigned
from repro.core.quotient import QuotientGraph
from repro.core.swaps import improve_by_swaps
from repro.experiments.instances import scaled_cluster_for
from repro.generators.families import generate_workflow
from repro.memdag.requirement import RequirementCache
from repro.partition.api import acyclic_partition
from repro.platform.presets import default_cluster

makespan_mod = importlib.import_module("repro.core.makespan")


def _swap_ready_quotient(family: str, n: int, k_prime: int):
    """Deterministically rebuild the state improve_by_swaps starts from."""
    wf = generate_workflow(family, n, seed=6)
    cluster = scaled_cluster_for(wf, default_cluster())
    cache = RequirementCache(wf)
    partition = acyclic_partition(wf, k_prime)
    state = biggest_assign(wf, cluster, partition, cache=cache)
    q = QuotientGraph.from_partition(
        wf, [state.blocks[b] for b in state.blocks],
        [state.assigned.get(b) for b in state.blocks])
    assert q.is_acyclic()
    assert merge_unassigned_to_assigned(q, cluster, cache)
    return q, cluster, cache


def test_swap_search_full_pass_reduction(benchmark):
    """>= 5x fewer full bottom-weight passes in improve_by_swaps."""
    total_full = 0
    total_delta = 0
    swaps_full = []
    swaps_delta = []

    def run_delta():
        count = 0
        swaps_delta.clear()
        for family in bench_families():
            q, cluster, cache = _swap_ready_quotient(family, 120, 12)
            ev = MakespanEvaluator(q, cluster)  # one full pass, before reset
            makespan_mod.reset_full_pass_counter()
            swaps_delta.append(improve_by_swaps(q, cluster, cache, evaluator=ev))
            count += makespan_mod.reset_full_pass_counter()
        return count

    total_delta = benchmark.pedantic(run_delta, rounds=1, iterations=1)
    for family in bench_families():
        q, cluster, cache = _swap_ready_quotient(family, 120, 12)
        makespan_mod.reset_full_pass_counter()
        swaps_full.append(improve_by_swaps(q, cluster, cache))
        total_full += makespan_mod.reset_full_pass_counter()

    print(f"\nfull bottom-weight passes during improve_by_swaps "
          f"({len(swaps_full)} instances):")
    print(f"  full recompute : {total_full:6d} passes, swaps {swaps_full}")
    print(f"  delta engine   : {total_delta:6d} passes, swaps {swaps_delta}")
    assert swaps_delta == swaps_full  # identical search trajectory
    assert total_full >= 5 * max(1, total_delta)


def test_fig3_corpus_bit_for_bit_equivalence():
    """Evaluator on vs off: identical records over the fig3 corpus."""
    from repro.experiments import figures

    kwargs = dict(seed=0, families=bench_families(), sizes=BENCH_SIZES)

    def strip(records):
        return [{k: v for k, v in asdict(r).items() if k != "runtime"}
                for r in records]

    on = figures.fig3_left(config=DagHetPartConfig(
        k_prime_strategy="doubling", use_evaluator=True), **kwargs)
    off = figures.fig3_left(config=DagHetPartConfig(
        k_prime_strategy="doubling", use_evaluator=False), **kwargs)
    assert strip(on["records"]) == strip(off["records"])
    assert on["rows"] == off["rows"]


def test_single_instance_speed(benchmark):
    """End-to-end DagHetPart with the evaluator (tracked for regressions)."""
    wf = generate_workflow("genome", 160, seed=6)
    cluster = scaled_cluster_for(wf, default_cluster())
    cfg = DagHetPartConfig(k_prime_strategy="doubling")
    result = benchmark.pedantic(
        lambda: dag_het_part_sweep(wf, cluster, cfg).mapping.makespan(),
        rounds=1, iterations=1)
    assert result > 0
