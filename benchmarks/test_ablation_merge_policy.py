"""Ablation: Step 3's critical-path-avoiding merge preference.

The paper prefers merging unassigned blocks into vertices *off* the
critical path; this bench measures the makespan effect of disabling the
preference (merging into the best neighbour regardless).
"""

import math

from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
from repro.experiments.instances import scaled_cluster_for
from repro.generators.families import generate_workflow
from repro.platform.presets import small_cluster

FAMS = ("genome", "epigenomics", "montage")


def _geomean_makespan(prefer_off_cp: bool) -> float:
    values = []
    for fam in FAMS:
        wf = generate_workflow(fam, 120, seed=8)
        cluster = scaled_cluster_for(wf, small_cluster())
        cfg = DagHetPartConfig(k_prime_strategy="doubling",
                               prefer_off_critical_path=prefer_off_cp)
        try:
            values.append(dag_het_part_sweep(
                wf, cluster, cfg).mapping.makespan())
        except Exception:
            continue
    return math.exp(sum(math.log(v) for v in values) / len(values))


def test_ablation_merge_policy(benchmark):
    with_pref = benchmark.pedantic(
        _geomean_makespan, args=(True,), rounds=1, iterations=1)
    without_pref = _geomean_makespan(False)
    print(f"\nStep-3 merge policy ablation (geomean makespan):")
    print(f"  prefer off-critical-path: {with_pref:9.1f}")
    print(f"  any assigned neighbour  : {without_pref:9.1f}")
    # both must produce valid results; the preference should not hurt badly
    assert with_pref <= without_pref * 1.25
