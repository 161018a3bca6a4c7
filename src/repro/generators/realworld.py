"""nf-core-like "real-world" workflows with simulated historical traces.

The paper evaluates five small real workflows (11-58 tasks) exported from
nextflow pipelines [10], weighted with Lotaru historical measurements [3].
We do not have those proprietary trace files; this module reproduces their
*statistical fingerprint* instead:

* small DAGs with nf-core pipeline shapes (per-sample fans feeding
  aggregation stages and a MultiQC-style sink);
* only a fraction of tasks have "historical data" — the paper reports
  40-60% missing for several pipelines; tasks without data get weight 1;
* measured values are heavy-tailed (lognormal) and normalized by the
  smallest measured value, exactly like the paper normalizes by the
  minimum ("tasks without historical data receive less insignificant
  values compared to tasks with historical data");
* memory weights are normalized so the largest task requirement fits the
  192-unit C2 node.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.utils.rng import SeedLike, make_rng, stable_hash
from repro.workflow.graph import Workflow
from repro.workflow.transform import normalize_memory_to

#: (name, n_samples, per_sample_chain, n_aggregate, missing_fraction)
#: chosen so task counts land on 58/42/35/24/11 — the paper's 11..58 range
_REAL_SPECS: List[Tuple[str, int, int, int, float]] = [
    ("methylseq", 8, 6, 8, 0.55),   # 2 + 8*6 + 8 = 58
    ("chipseq", 6, 6, 4, 0.45),     # 2 + 6*6 + 4 = 42
    ("mag", 4, 7, 5, 0.40),         # 2 + 4*7 + 5 = 35
    ("viralrecon", 4, 4, 6, 0.50),  # 2 + 4*4 + 6 = 24
    ("airrflow", 3, 2, 3, 0.60),    # 2 + 3*2 + 3 = 11
]

REAL_WORKFLOW_NAMES = tuple(spec[0] for spec in _REAL_SPECS)


def _build_topology(name: str, n_samples: int, chain: int, n_agg: int) -> Workflow:
    """input_check -> per-sample chains -> aggregation stages -> multiqc."""
    wf = Workflow(name)
    wf.add_task(f"{name}:input_check")
    wf.add_task(f"{name}:multiqc")
    last_per_sample = []
    for s in range(n_samples):
        prev = f"{name}:input_check"
        for c in range(chain):
            t = f"{name}:s{s}:stage{c}"
            wf.add_task(t)
            wf.add_edge(prev, t)
            prev = t
        last_per_sample.append(prev)
    agg_tasks = []
    for a in range(n_agg):
        t = f"{name}:aggregate{a}"
        wf.add_task(t)
        agg_tasks.append(t)
        # each aggregation stage consumes a slice of the per-sample outputs
        for i, src in enumerate(last_per_sample):
            if i % n_agg == a:
                wf.add_edge(src, t)
        wf.add_edge(t, f"{name}:multiqc")
    # chain some aggregations (report stages depend on earlier summaries)
    for a in range(1, len(agg_tasks), 2):
        wf.add_edge(agg_tasks[a - 1], agg_tasks[a])
    return wf


def _stage_key(task: str) -> str:
    """Strip the per-sample index: ``name:s3:stage2`` -> ``name:stage2``.

    Historical data is recorded per pipeline *stage* (nextflow process);
    every sample's instance of a stage shares the stage's measured values.
    This per-stage correlation is what makes the heavy work of real
    pipelines parallelizable across samples.
    """
    parts = task.split(":")
    return ":".join(p for p in parts if not (p and p[0] == "s" and p[1:].isdigit()))


def _simulate_historical_weights(wf: Workflow, missing_fraction: float,
                                 seed: SeedLike) -> Workflow:
    """Lotaru-like weights: heavy-tailed for measured stages, 1 otherwise."""
    rng = make_rng(seed)
    tasks = list(wf.tasks())
    stages = sorted({_stage_key(u) for u in tasks})
    n_measured = max(1, round(len(stages) * (1.0 - missing_fraction)))
    measured = {stages[i] for i in
                rng.choice(len(stages), size=n_measured, replace=False).tolist()}

    # per-sample stages (alignment, dedup, calling, ...) do the heavy
    # lifting in real pipelines; global stages (input check, aggregation,
    # MultiQC) are light bookkeeping — bias the draw accordingly
    per_sample = {_stage_key(u) for u in tasks if u != _stage_key(u)}

    raw_work: Dict = {}
    raw_mem: Dict = {}
    for stage in stages:
        if stage in measured:
            # lognormal measured values: long tail, like PS-stat traces
            mean = 3.5 if stage in per_sample else 1.0
            raw_work[stage] = float(rng.lognormal(mean=mean, sigma=1.2))
            raw_mem[stage] = float(rng.lognormal(mean=1.5, sigma=1.0))
    min_work = min(raw_work.values())
    min_mem = min(raw_mem.values())
    for u in tasks:
        stage = _stage_key(u)
        if stage in measured:
            wf.set_work(u, raw_work[stage] / min_work)
            wf.set_memory(u, raw_mem[stage] / min_mem)
        else:
            wf.set_work(u, 1.0)  # the paper's weight for missing data
            wf.set_memory(u, 1.0)

    # historical data stores per-task total output size; split over children
    for u in tasks:
        n_children = wf.out_degree(u)
        if n_children == 0:
            continue
        total_out = float(rng.lognormal(mean=0.5, sigma=0.8))
        share = total_out / n_children
        for v in list(wf.children(u)):
            wf.remove_edge(u, v)
            wf.add_edge(u, v, share)
    return wf


def generate_real_workflow(name: str, seed: SeedLike = None,
                           work_factor: float = 1.0) -> Workflow:
    """One of the five real-world-like workflows, fully weighted.

    Deterministic per name (the name is hashed into the seed) so repeated
    experiment runs see identical workflows.
    """
    for spec_name, n_samples, chain, n_agg, missing in _REAL_SPECS:
        if spec_name == name:
            break
    else:
        raise KeyError(f"unknown real workflow {name!r}; valid: {REAL_WORKFLOW_NAMES}")
    base_seed = stable_hash(name) % (2 ** 31)
    if seed is not None and not hasattr(seed, "integers"):
        base_seed = (base_seed + int(seed)) % (2 ** 31)
    wf = _build_topology(name, n_samples, chain, n_agg)
    wf = _simulate_historical_weights(wf, missing, base_seed)
    if work_factor != 1.0:
        for u in wf.tasks():
            wf.set_work(u, wf.work(u) * work_factor)
    # normalize memory like the paper (largest requirement fits 192)
    wf = normalize_memory_to(wf, 192.0, name=name)
    wf.check_acyclic()
    return wf

