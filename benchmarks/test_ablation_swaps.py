"""Ablation: Step 4 (swaps and idle-processor moves).

Quantifies how much of DagHetPart's improvement comes from the local
search versus Steps 1-3 alone.
"""

import math

from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
from repro.experiments.instances import scaled_cluster_for
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster

FAMS = ("blast", "genome", "soykb")


def _geomean(enable_swaps, enable_idle):
    values = []
    for fam in FAMS:
        wf = generate_workflow(fam, 120, seed=6)
        cluster = scaled_cluster_for(wf, default_cluster())
        cfg = DagHetPartConfig(k_prime_strategy="doubling",
                               enable_swaps=enable_swaps,
                               enable_idle_moves=enable_idle)
        values.append(dag_het_part_sweep(wf, cluster, cfg).mapping.makespan())
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_ablation_step4(benchmark):
    full = benchmark.pedantic(_geomean, args=(True, True), rounds=1, iterations=1)
    no_swaps = _geomean(False, True)
    no_idle = _geomean(True, False)
    nothing = _geomean(False, False)
    print("\nStep-4 ablation (geomean makespan, 3 families @120 tasks):")
    print(f"  swaps + idle moves : {full:9.1f}")
    print(f"  idle moves only    : {no_swaps:9.1f}")
    print(f"  swaps only         : {no_idle:9.1f}")
    print(f"  neither            : {nothing:9.1f}")
    # Step 4 is monotone: the full configuration is never worse
    assert full <= nothing + 1e-9
    assert full <= no_swaps + 1e-9
    assert full <= no_idle + 1e-9
