"""Ablation: k' sweep granularity (``DagHetPartConfig.k_prime_strategy``).

The paper sweeps every k' in 1..k; our default uses a doubling subset on
large clusters. This bench quantifies what the subset costs in makespan
and saves in runtime, and — via the surfaced sweep trace — reports the
winning k' of each strategy without any re-running.
"""

import time

from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
from repro.experiments.instances import scaled_cluster_for
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster


def _run(strategy):
    wf = generate_workflow("genome", 150, seed=4)
    cluster = scaled_cluster_for(wf, default_cluster())
    start = time.perf_counter()
    outcome = dag_het_part_sweep(wf, cluster,
                                 DagHetPartConfig(k_prime_strategy=strategy))
    return outcome, time.perf_counter() - start


def test_ablation_k_sweep(benchmark):
    (full, full_t) = benchmark.pedantic(
        _run, args=("all",), rounds=1, iterations=1)
    doubling, doubling_t = _run("doubling")
    full_ms = full.mapping.makespan()
    doubling_ms = doubling.mapping.makespan()
    print(f"\nk' sweep ablation (genome-150, default cluster):")
    print(f"  all      : makespan={full_ms:9.1f}  time={full_t:6.2f}s  "
          f"k'={full.k_prime}  ({len(full.sweep)} candidates)")
    print(f"  doubling : makespan={doubling_ms:9.1f}  time={doubling_t:6.2f}s  "
          f"k'={doubling.k_prime}  ({len(doubling.sweep)} candidates)")
    # the full sweep can only be better or equal in makespan
    assert full_ms <= doubling_ms + 1e-9
    # and the doubling subset must be meaningfully cheaper
    assert doubling_t < full_t
    # the trace is consistent: the winner realizes the best "ok" makespan
    for outcome in (full, doubling):
        ok = {p.k_prime: p.makespan for p in outcome.sweep
              if p.status == "ok"}
        assert outcome.k_prime in ok
        assert ok[outcome.k_prime] == min(ok.values())
        assert abs(outcome.mapping.makespan() - ok[outcome.k_prime]) <= 1e-6
