"""One driver per table and figure of the paper's evaluation (Section 5.2).

Every function returns ``{"rows": [...], "records": [...]}`` — ``rows``
holds exactly the series the paper plots (ready for
:func:`repro.experiments.report.format_table`), ``records`` the raw
per-run data. Every driver takes the same keyword arguments: the corpus
knobs ``seed``, ``full``, ``families``, ``sizes`` and ``config`` (so the
benchmarks can run reduced corpora while ``REPRO_FULL=1`` reproduces the
paper's scale), and the execution knobs ``progress``, ``parallel`` and
``cache``. :data:`EXPERIMENTS` names them all.

``cache`` (a cache URI or an open :class:`~repro.api.CacheBackend`) is
how a full evaluation shares work: request fingerprints leave out tags
and scenario names, so a corpus several drivers sweep — the default
cluster at ``bandwidth=1`` feeds most of them — is solved once and read
back by every later driver.

Every driver is now a thin aggregation over a declarative
:class:`~repro.api.ScenarioSpec` (:func:`corpus_scenario` builds the spec,
:func:`repro.experiments.runner.scenario_records` streams it through
``repro.api``), so records carry structured failure reasons and the
winning ``k'`` per run; :func:`failure_report` turns the former into a
table of its own, and any figure's workload can be exported as a JSON
spec and re-run — cached and resumable — with ``repro scenario run``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.api import (
    AlgorithmSpec,
    FamilyGridSource,
    PlatformAxis,
    RealWorkflowSource,
    ScenarioSpec,
    get_algorithm,
)
from repro.core.heuristic import DagHetPartConfig
from repro.experiments.instances import SIZE_CATEGORIES, synthetic_sizes
from repro.experiments.metrics import (
    aggregate_by,
    makespan_ratios,
    relative_makespan_by,
    success_counts,
)
from repro.experiments.runner import ALGORITHMS, RunRecord, scenario_records
from repro.platform.presets import (
    MACHINE_KINDS,
    MACHINE_KINDS_LESSHET,
    MACHINE_KINDS_MOREHET,
    cluster_by_name,
)

_CAT_ORDER = {cat: i for i, cat in enumerate(SIZE_CATEGORIES)}


def corpus_scenario(name: str, preset: str = "default", bandwidth: float = 1.0,
                    seed=0, full=None, families=None, sizes=None,
                    include_real: bool = True, work_factor: float = 1.0,
                    config: Optional[DagHetPartConfig] = None,
                    algorithms: Sequence[str] = ALGORITHMS,
                    algorithm_specs: Optional[Sequence[AlgorithmSpec]] = None,
                    ) -> ScenarioSpec:
    """The classic corpus sweep (Section 5.1.1 corpus on one cluster) as a
    declarative scenario.

    Expansion order is real workflows first, then the family grid,
    instance-major / algorithm-minor. ``config`` is attached to every
    algorithm that declares a config class; ``algorithm_specs`` overrides
    the whole algorithm grid for drivers whose algorithms take *different*
    config types (e.g. the refinement suite's DagHetPartConfig +
    AnnealConfig pairing).
    """
    sources: List = []
    if include_real:
        sources.append(RealWorkflowSource(seed=seed, work_factor=work_factor))
    sources.append(FamilyGridSource(
        families=None if families is None else tuple(families),
        sizes=sizes if sizes is not None else synthetic_sizes(full),
        seed=seed, work_factor=work_factor))
    if algorithm_specs is None:
        algorithm_specs = tuple(
            AlgorithmSpec(alg, config=config
                          if get_algorithm(alg).config_cls is not None else None)
            for alg in algorithms)
    return ScenarioSpec(
        name=name,
        workflows=tuple(sources),
        platforms=(PlatformAxis(preset=preset, bandwidths=(bandwidth,)),),
        algorithms=tuple(algorithm_specs),
        scale_memory=True,
    )


def _records(preset: str, progress=None, parallel=None, cache=None,
             **corpus) -> List[RunRecord]:
    """The records of ``corpus_scenario(preset=preset, **corpus)``."""
    spec = corpus_scenario(f"corpus-{preset}", preset=preset, **corpus)
    return scenario_records(spec, parallel=parallel, progress=progress,
                            cache=cache)


# ----------------------------------------------------------------------
# Tables 2 and 3 — cluster configurations (pure data, kept as experiments
# so the benches can assert the presets never drift from the paper)
# ----------------------------------------------------------------------
def table2(**_knobs) -> Dict[str, List[Dict]]:
    """Table 2: the default cluster's machine kinds (the driver knobs are
    accepted and ignored, like every static table's)."""
    rows = [{"processor": kind, "speed_ghz": float(s), "memory_gb": float(m)}
            for kind, s, m in MACHINE_KINDS]
    return {"rows": rows, "records": []}


def table3(**_knobs) -> Dict[str, List[Dict]]:
    """Table 3: MoreHet and LessHet machine kinds."""
    rows = []
    for (k1, s1, m1), (k2, s2, m2) in zip(MACHINE_KINDS_MOREHET, MACHINE_KINDS_LESSHET):
        rows.append({"morehet": k1, "speed*": float(s1), "memory*": float(m1),
                     "lesshet": k2, "speed'": float(s2), "memory'": float(m2)})
    return {"rows": rows, "records": []}


# ----------------------------------------------------------------------
# Fig. 3 (left): relative makespan by workflow type, default cluster
# ----------------------------------------------------------------------
def fig3_left(**knobs) -> Dict[str, List]:
    """Relative makespan (%) of DagHetPart vs DagHetMem per workflow type."""
    records = _records("default", **knobs)
    rel = relative_makespan_by(records, key=lambda r: r.category)
    rows = [{"workflow_type": cat, "relative_makespan_pct": rel[cat]}
            for cat in SIZE_CATEGORIES if cat in rel]
    overall = relative_makespan_by(records, key=lambda r: "all").get("all")
    if overall is not None:
        rows.append({"workflow_type": "all", "relative_makespan_pct": overall})
    return {"rows": rows, "records": records}


# ----------------------------------------------------------------------
# Fig. 3 (right): relative makespan on different cluster sizes
# ----------------------------------------------------------------------
def fig3_right(**knobs) -> Dict[str, List]:
    """Relative makespan (%) across small/default/large clusters (18/36/60)."""
    rows: List[Dict] = []
    all_records: List[RunRecord] = []
    for preset in ("small", "default", "large"):
        records = _records(preset, **knobs)
        all_records.extend(records)
        rel = relative_makespan_by(records, key=lambda r: r.category)
        n_cpus = cluster_by_name(preset).k
        for cat in SIZE_CATEGORIES:
            if cat in rel:
                rows.append({"n_cpus": n_cpus, "workflow_type": cat,
                             "relative_makespan_pct": rel[cat]})
    rows.sort(key=lambda r: (r["n_cpus"], _CAT_ORDER[r["workflow_type"]]))
    return {"rows": rows, "records": all_records}


# ----------------------------------------------------------------------
# Fig. 4: impact of heterogeneity (relative + absolute makespans)
# ----------------------------------------------------------------------
def fig4(**knobs) -> Dict[str, List]:
    """NoHet / LessHet / default / MoreHet: relative and absolute makespan."""
    rows: List[Dict] = []
    all_records: List[RunRecord] = []
    for label in ("nohet", "lesshet", "default", "morehet"):
        records = _records(label, **knobs)
        all_records.extend(records)
        rel = relative_makespan_by(records, key=lambda r: r.category)
        absolute = aggregate_by(
            [r for r in records if r.algorithm == "DagHetPart" and r.success],
            key=lambda r: r.category, value=lambda r: r.makespan)
        for cat in SIZE_CATEGORIES:
            if cat in rel:
                rows.append({"heterogeneity": label, "workflow_type": cat,
                             "relative_makespan_pct": rel[cat],
                             "absolute_makespan": absolute.get(cat, float("nan"))})
    return {"rows": rows, "records": all_records}


# ----------------------------------------------------------------------
# Fig. 5 / Fig. 6: per-family behaviour when scaling workflow size
# ----------------------------------------------------------------------
def fig5(**knobs) -> Dict[str, List]:
    """Relative makespan per workflow family as a function of size."""
    records = _records("default", include_real=False, **knobs)
    rows = [
        {"family": rec.family, "n_tasks": rec.n_tasks,
         "relative_makespan_pct": 100.0 * ratio}
        for rec, ratio in makespan_ratios(records)
    ]
    rows.sort(key=lambda r: (r["family"], r["n_tasks"]))
    return {"rows": rows, "records": records}


def fig6(**knobs) -> Dict[str, List]:
    """Absolute DagHetPart makespan per family as a function of size."""
    records = _records("default", include_real=False, **knobs)
    rows = [
        {"family": r.family, "n_tasks": r.n_tasks, "makespan": r.makespan}
        for r in records if r.algorithm == "DagHetPart" and r.success
    ]
    rows.sort(key=lambda r: (r["family"], r["n_tasks"]))
    return {"rows": rows, "records": records}


# ----------------------------------------------------------------------
# Fig. 7: impact of the communication-to-computation ratio (bandwidth)
# ----------------------------------------------------------------------
def fig7(betas: Sequence[float] = (0.1, 0.5, 1.0, 2.0, 5.0),
         **knobs) -> Dict[str, List]:
    """Relative makespan vs bandwidth, by workflow type."""
    rows: List[Dict] = []
    all_records: List[RunRecord] = []
    for beta in betas:
        records = _records("default", bandwidth=beta, **knobs)
        all_records.extend(records)
        rel = relative_makespan_by(records, key=lambda r: r.category)
        for cat in SIZE_CATEGORIES:
            if cat in rel:
                rows.append({"bandwidth": beta, "workflow_type": cat,
                             "relative_makespan_pct": rel[cat]})
    rows.sort(key=lambda r: (_CAT_ORDER[r["workflow_type"]], r["bandwidth"]))
    return {"rows": rows, "records": all_records}


# ----------------------------------------------------------------------
# Figs. 8-9 and Table 4: running times
# ----------------------------------------------------------------------
def fig8(**knobs) -> Dict[str, List]:
    """Per-workflow running time of DagHetPart relative to DagHetMem."""
    records = _records("default", **knobs)
    by_instance: Dict[str, Dict[str, RunRecord]] = {}
    for r in records:
        by_instance.setdefault(r.instance, {})[r.algorithm] = r
    rows = []
    for name, algs in sorted(by_instance.items()):
        mem, part = algs.get("DagHetMem"), algs.get("DagHetPart")
        if mem is None or part is None or mem.runtime <= 0:
            continue
        rows.append({"instance": name, "family": part.family,
                     "n_tasks": part.n_tasks,
                     "relative_runtime": part.runtime / mem.runtime})
    return {"rows": rows, "records": records}


def fig9(**knobs) -> Dict[str, List]:
    """Absolute running time of DagHetPart by workflow type (log-scale plot)."""
    records = _records("default", **knobs)
    rows = [
        {"workflow_type": r.category, "instance": r.instance,
         "n_tasks": r.n_tasks, "runtime_sec": r.runtime}
        for r in records if r.algorithm == "DagHetPart"
    ]
    rows.sort(key=lambda r: (_CAT_ORDER[r["workflow_type"]], r["n_tasks"]))
    return {"rows": rows, "records": records}


def table4(**knobs) -> Dict[str, List]:
    """Table 4: avg relative and absolute running times per workflow set."""
    records = _records("default", **knobs)
    by_cat_rel: Dict[str, List[float]] = {}
    by_cat_abs: Dict[str, List[float]] = {}
    by_instance: Dict[str, Dict[str, RunRecord]] = {}
    for r in records:
        by_instance.setdefault(r.instance, {})[r.algorithm] = r
    for algs in by_instance.values():
        mem, part = algs.get("DagHetMem"), algs.get("DagHetPart")
        if mem is None or part is None:
            continue
        by_cat_abs.setdefault(part.category, []).append(part.runtime)
        if mem.runtime > 0:
            by_cat_rel.setdefault(part.category, []).append(part.runtime / mem.runtime)
    rows = []
    for cat in SIZE_CATEGORIES:
        if cat not in by_cat_abs:
            continue
        rel = by_cat_rel.get(cat, [])
        rows.append({
            "workflow_set": cat,
            "avg_relative_runtime": sum(rel) / len(rel) if rel else float("nan"),
            "avg_absolute_runtime_sec": sum(by_cat_abs[cat]) / len(by_cat_abs[cat]),
        })
    return {"rows": rows, "records": records}


# ----------------------------------------------------------------------
# Section 5.2.2: scheduling success counts per cluster size
# ----------------------------------------------------------------------
def success_counts_experiment(**knobs) -> Dict[str, List]:
    """How many workflows each algorithm schedules on each cluster size."""
    rows: List[Dict] = []
    all_records: List[RunRecord] = []
    for preset in ("small", "default", "large"):
        records = _records(preset, **knobs)
        all_records.extend(records)
        cluster_name = cluster_by_name(preset).name
        for (cat, alg), (ok, total) in sorted(success_counts(records).items()):
            rows.append({"cluster": cluster_name, "workflow_type": cat,
                         "algorithm": alg, "scheduled": ok, "total": total})
    return {"rows": rows, "records": all_records}


# ----------------------------------------------------------------------
# Failure audit: which runs failed and why (uses RunRecord.failure_reason)
# ----------------------------------------------------------------------
def failure_report(**knobs) -> Dict[str, List]:
    """Every failed run on the small cluster, with its structured reason.

    The small (18-proc) cluster is where the paper's corpus actually
    fails to schedule (Section 5.2.2); the rows break the bare success
    counts down into *why* — the exception kind and message the runner
    used to discard.
    """
    records = _records("small", algorithms=ALGORITHMS + ("HeftList",),
                       **knobs)
    rows = [
        {"instance": r.instance, "workflow_type": r.category,
         "algorithm": r.algorithm, "failure_reason": r.failure_reason}
        for r in records if not r.success
    ]
    rows.sort(key=lambda r: (_CAT_ORDER[r["workflow_type"]],
                             r["instance"], r["algorithm"]))
    if not rows:
        rows = [{"instance": "(none)", "workflow_type": "-", "algorithm": "-",
                 "failure_reason": "all runs scheduled successfully"}]
    return {"rows": rows, "records": records}


# ----------------------------------------------------------------------
# HEFT baseline: what does the memory constraint cost?
# ----------------------------------------------------------------------
def heft_relative(**knobs) -> Dict[str, List]:
    """Memory-aware algorithms vs the memory-oblivious HeftList baseline.

    HeftList ignores memory entirely, so its makespan is what a classic
    list scheduler achieves when the memory constraint is dropped; the
    relative makespans (geometric mean, in %) of DagHetPart and DagHetMem
    against it bound how much respecting memory costs on the default
    cluster.
    """
    records = _records("default", algorithms=ALGORITHMS + ("HeftList",),
                       **knobs)
    part = relative_makespan_by(records, key=lambda r: r.category,
                                numerator="DagHetPart", denominator="HeftList")
    mem = relative_makespan_by(records, key=lambda r: r.category,
                               numerator="DagHetMem", denominator="HeftList")
    rows = [
        {"workflow_type": cat,
         "daghetpart_vs_heft_pct": part[cat],
         "daghetmem_vs_heft_pct": mem.get(cat, float("nan"))}
        for cat in SIZE_CATEGORIES if cat in part
    ]
    overall = relative_makespan_by(records, key=lambda r: "all",
                                   numerator="DagHetPart",
                                   denominator="HeftList").get("all")
    if overall is not None:
        rows.append({"workflow_type": "all",
                     "daghetpart_vs_heft_pct": overall,
                     "daghetmem_vs_heft_pct": relative_makespan_by(
                         records, key=lambda r: "all", numerator="DagHetMem",
                         denominator="HeftList").get("all", float("nan"))})
    return {"rows": rows, "records": records}


# ----------------------------------------------------------------------
# Refinement suite: what does simulated annealing buy over DagHetPart?
# ----------------------------------------------------------------------
def refinement_gain(config: Optional[DagHetPartConfig] = None,
                    anneal_config: Optional["AnnealConfig"] = None,
                    **knobs) -> Dict[str, List]:
    """Relative makespan (%) of ``anneal`` vs its ``daghetpart`` seed.

    The annealer is seeded from the best DagHetPart sweep mapping and
    never returns a worse one, so every per-instance ratio is <= 100%;
    the geometric means per workflow type quantify what the Metropolis
    local search buys beyond the paper's greedy Step 4. The annealer's
    ``k'`` strategy follows ``config`` so both columns sweep the same
    candidate partitions.
    """
    from repro.core.anneal import AnnealConfig

    part_config = config or DagHetPartConfig()
    if anneal_config is None:
        anneal_config = AnnealConfig(
            k_prime_strategy=part_config.k_prime_strategy)
    records = _records("default", algorithm_specs=(
        AlgorithmSpec("daghetpart", config=part_config),
        AlgorithmSpec("anneal", config=anneal_config),
    ), **knobs)
    rel = relative_makespan_by(records, key=lambda r: r.category,
                               numerator="Anneal", denominator="DagHetPart")
    rows = [{"workflow_type": cat, "anneal_vs_daghetpart_pct": rel[cat]}
            for cat in SIZE_CATEGORIES if cat in rel]
    overall = relative_makespan_by(records, key=lambda r: "all",
                                   numerator="Anneal",
                                   denominator="DagHetPart").get("all")
    if overall is not None:
        rows.append({"workflow_type": "all",
                     "anneal_vs_daghetpart_pct": overall})
    return {"rows": rows, "records": records}


# ----------------------------------------------------------------------
# Section 5.2.4: four-times-bigger computational demands
# ----------------------------------------------------------------------
def demand4x(**knobs) -> Dict[str, List]:
    """Relative makespans with normal vs 4x workloads, side by side."""
    rows: List[Dict] = []
    all_records: List[RunRecord] = []
    rel_by_factor: Dict[float, Dict[str, float]] = {}
    for factor in (1.0, 4.0):
        records = _records("default", work_factor=factor, **knobs)
        all_records.extend(records)
        rel_by_factor[factor] = relative_makespan_by(records, key=lambda r: r.category)
    for cat in SIZE_CATEGORIES:
        if cat in rel_by_factor[1.0] or cat in rel_by_factor[4.0]:
            rows.append({
                "workflow_type": cat,
                "relative_makespan_pct_1x": rel_by_factor[1.0].get(cat, float("nan")),
                "relative_makespan_pct_4x": rel_by_factor[4.0].get(cat, float("nan")),
            })
    return {"rows": rows, "records": all_records}


# ----------------------------------------------------------------------
# Dynamic scenarios: robustness of the reaction policies
# ----------------------------------------------------------------------
def robustness(seed=0, full=None, families=None, sizes=None,
               config: Optional[DagHetPartConfig] = None,
               progress=None, parallel=None, cache=None) -> Dict[str, List]:
    """Robustness table: each reaction policy under one perturbation mix.

    Every (family, policy) cell replays the same ``daghetpart`` plan for
    the same seeded dynamics — Poisson job arrivals, one mid-run
    processor failure, one runtime-inflation shock — so the columns
    isolate the policy: makespan degradation over the undisturbed plan,
    task migrations, wholesale re-solves, and reaction latency. Each cell
    is one request with a ``dynamics`` block, so the cells run through
    :func:`~repro.api.solve_batch` on ``parallel`` workers. Every family
    runs at the corpus's smallest size (80 tasks, 300 with ``full``,
    when ``sizes`` is not given).
    """
    from repro.api import ScheduleRequest, solve_batch
    from repro.generators.families import generate_workflow
    from repro.sim.events import (
        DynamicsSpec,
        PoissonArrivals,
        ProcessorChurn,
        RuntimeInflation,
    )
    from repro.sim.policies import available_policies

    families = tuple(families) if families else ("blast", "genome", "montage")
    n_tasks = min(n for ns in sizes.values() for n in ns) if sizes \
        else (300 if full else 80)
    part_config = config or DagHetPartConfig()
    cluster = cluster_by_name("default")

    requests = []
    for family in families:
        wf = generate_workflow(family, n_tasks, seed=seed)
        models = (
            PoissonArrivals(rate=3.0, count=2, family=family,
                            n_tasks=max(10, n_tasks // 8), start=0.1),
            ProcessorChurn(fail_times=(0.4,)),
            RuntimeInflation(times=(0.55,), sigma=0.25, fraction=0.5),
        )
        for policy in available_policies():
            requests.append(ScheduleRequest(
                workflow=wf, cluster=cluster, algorithm="daghetpart",
                config=part_config,
                scale_memory=True, want_mapping=False,
                tags={"instance": f"{family}-{n_tasks}", "family": family},
                dynamics=DynamicsSpec(models=models, seed=seed + 17,
                                      policy=policy)))

    def report(index, request, result):
        progress(f"robustness: {request.tags['instance']} / "
                 f"{request.dynamics.policy}")

    records = solve_batch(requests, parallel=parallel, cache=cache,
                          progress=report if progress is not None else None)
    rows: List[Dict] = []
    for request, result in zip(requests, records):
        family, policy = request.tags["family"], request.dynamics.policy
        if result.failure is not None:
            rows.append({"family": family, "policy": policy,
                         "failure": result.failure.kind})
            continue
        extra = result.extra
        rows.append({
            "family": family,
            "policy": policy,
            "plan_makespan": round(extra["sim_plan_makespan"], 2),
            "realized_makespan": round(extra["sim_realized_makespan"], 2),
            "degradation_pct": round(extra["sim_degradation_pct"], 1),
            "migrations": extra["sim_task_migrations"],
            "replans": extra["sim_replans"],
            "full_passes": extra["sim_full_passes"],
            "react_total_s": round(extra["sim_react_total_s"], 4),
        })
    return {"rows": rows, "records": records}


# ----------------------------------------------------------------------
# Optimality gap: heuristics vs the exhaustive reference solver
# ----------------------------------------------------------------------
def optimality_gap(seed=0, full=None, families=None, sizes=None,
                   config: Optional[DagHetPartConfig] = None,
                   progress=None, parallel=None,
                   cache=None) -> Dict[str, List]:
    """How far from optimal are the heuristics on tiny instances?

    Every family x size instance small enough for the ``exact`` reference
    solver (<= 8 tasks after generation; the topology builders treat
    ``n_tasks`` as approximate, so oversized outputs are skipped and
    reported) is solved by ``exact`` and by every memory-aware heuristic;
    the table shows each heuristic's geometric-mean and worst gap
    (``makespan / optimum - 1``, in %) plus how many instances it solved
    to proven optimality. ``full``/``sizes``/``config`` are accepted for
    driver signature parity; the instance sizes are intrinsically capped
    by the solver, so the corpus knobs do not grow this table.
    """
    import math

    from repro.api import ScheduleRequest, solve_batch
    from repro.core.exact import DEFAULT_MAX_TASKS
    from repro.generators.families import WORKFLOW_FAMILIES, generate_workflow
    from repro.utils.rng import stable_hash

    families = tuple(families) if families else WORKFLOW_FAMILIES
    heuristics = ("daghetpart", "daghetmem", "cpack", "anneal")
    cluster = cluster_by_name("default")

    instances = []
    skipped = []
    for family in families:
        for n in (5, 6, 7, 8):
            inst_seed = (seed + stable_hash(f"{family}:{n}")) % (2 ** 31)
            wf = generate_workflow(family, n, seed=inst_seed)
            if wf.n_tasks > DEFAULT_MAX_TASKS:
                skipped.append(f"{family}-{n}")
                continue
            instances.append((f"{family}-{n}", wf))
    if progress is not None and skipped:
        progress(f"optimality_gap: skipped oversized {', '.join(skipped)}")

    requests = [
        ScheduleRequest(workflow=wf, cluster=cluster, algorithm=alg,
                        scale_memory=True, want_mapping=False,
                        tags={"instance": name, "algorithm_name": alg})
        for name, wf in instances
        for alg in ("exact",) + heuristics
    ]
    results = solve_batch(requests, parallel=parallel, cache=cache)

    by_instance: Dict[str, Dict[str, object]] = {}
    for req, res in zip(requests, results):
        by_instance.setdefault(req.tags["instance"], {})[req.algorithm] = res

    gaps: Dict[str, List[float]] = {alg: [] for alg in heuristics}
    optimal_counts: Dict[str, int] = {alg: 0 for alg in heuristics}
    attempted: Dict[str, int] = {alg: 0 for alg in heuristics}
    for name, _ in instances:
        per_alg = by_instance[name]
        exact_res = per_alg["exact"]
        if not exact_res.success:
            continue  # infeasible instance: no optimum to compare against
        optimum = exact_res.makespan
        for alg in heuristics:
            res = per_alg[alg]
            if not res.success:
                continue
            attempted[alg] += 1
            gap = res.makespan / optimum - 1.0
            gaps[alg].append(gap)
            if gap <= 1e-9:
                optimal_counts[alg] += 1

    rows: List[Dict] = []
    for alg in heuristics:
        if not attempted[alg]:
            continue
        display = get_algorithm(alg).display_name
        # shift by +1 so zero gaps survive the geometric mean
        geo_gap = 100.0 * (math.exp(
            sum(math.log(1.0 + g) for g in gaps[alg]) / len(gaps[alg])) - 1.0)
        rows.append({
            "algorithm": display,
            "instances": attempted[alg],
            "optimal": optimal_counts[alg],
            "geo_gap_pct": round(geo_gap, 3),
            "worst_gap_pct": round(100.0 * max(gaps[alg]), 3),
        })
    return {"rows": rows, "records": results}


#: every driver by the name ``repro experiment`` and
#: ``scripts/run_all_experiments.py`` know it by
EXPERIMENTS = {
    "table2": table2,
    "table3": table3,
    "fig3_left": fig3_left,
    "fig3_right": fig3_right,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "table4": table4,
    "success_counts": success_counts_experiment,
    "failures": failure_report,
    "heft_relative": heft_relative,
    "demand4x": demand4x,
    "refinement_gain": refinement_gain,
    "robustness": robustness,
    "optimality_gap": optimality_gap,
}
