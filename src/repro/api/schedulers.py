"""The built-in algorithms, registered as pluggable schedulers.

Importing :mod:`repro.api` loads this module, which populates the registry
with ``daghetmem`` (Section 4.1 baseline), ``daghetpart`` (Section 4.2
four-step heuristic), ``heftlist`` — a memory-oblivious HEFT-style
list scheduler that bounds how much the memory constraint costs —,
``cpack`` — a greedy memory-aware critical-path packer —, ``anneal`` —
simulated-annealing refinement of the DagHetPart mapping on the
incremental makespan evaluator — and ``exact`` — an exhaustive reference
solver for tiny instances. Third-party algorithms register the same way;
see :func:`repro.api.registry.register_algorithm`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.api.envelopes import SchedulerOutput
from repro.api.registry import register_algorithm
from repro.core.anneal import AnnealConfig, anneal_refine
from repro.core.baseline import dag_het_mem
from repro.core.cpack import critical_path_pack, rank_order, upward_ranks
from repro.core.evaluator import MakespanEvaluator
from repro.core.exact import ExactConfig, exact_schedule
from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
from repro.core.mapping import BlockAssignment, Mapping
from repro.memdag.requirement import RequirementCache
from repro.platform.cluster import Cluster
from repro.workflow.graph import Workflow


@register_algorithm(
    "daghetmem", display_name="DagHetMem",
    capabilities=("baseline", "memory-packing"),
    summary="memory-optimal traversal packed greedily onto processors by "
            "decreasing memory (Section 4.1); no makespan optimization")
class DagHetMemScheduler:
    """The validity baseline; takes no config."""

    def run(self, workflow: Workflow, cluster: Cluster,
            config: Optional[object] = None) -> SchedulerOutput:
        return SchedulerOutput(mapping=dag_het_mem(workflow, cluster))


@register_algorithm(
    "daghetpart", display_name="DagHetPart",
    config_cls=DagHetPartConfig,
    capabilities=("makespan-optimizing", "k-prime-sweep", "configurable"),
    summary="acyclic partition + BiggestAssign + merge-unassigned + swap "
            "local search over the k' sweep (Section 4.2)")
class DagHetPartScheduler:
    """The four-step heuristic; reports the winning ``k'`` and sweep trace."""

    def run(self, workflow: Workflow, cluster: Cluster,
            config: Optional[DagHetPartConfig] = None) -> SchedulerOutput:
        if config is not None and not isinstance(config, DagHetPartConfig):
            raise TypeError(
                f"daghetpart expects a DagHetPartConfig, got "
                f"{type(config).__name__}")
        outcome = dag_het_part_sweep(workflow, cluster, config=config)
        return SchedulerOutput(mapping=outcome.mapping,
                               k_prime=outcome.k_prime,
                               sweep=outcome.sweep)


@register_algorithm(
    "heftlist", display_name="HeftList",
    capabilities=("baseline", "memory-oblivious", "list-scheduler"),
    summary="HEFT-style memory-oblivious list scheduler: upward-rank "
            "priority order, contiguous work-balanced blocks, greedy "
            "earliest-finish-time processor selection; bounds how much "
            "the memory constraint costs")
class HeftListScheduler:
    """The classic third baseline — list scheduling without memory awareness.

    Tasks are ordered by decreasing HEFT upward rank, the order is cut
    into at most ``k`` contiguous, work-balanced blocks (contiguity in a
    topological order keeps the quotient graph acyclic, so the block
    makespan model of Section 3.3 applies), and each block is placed on
    the distinct processor minimizing its finish time. Memory plays no
    role in any decision, so the schedule never fails for lack of memory
    — its makespan bounds what the memory constraint costs DagHetPart.
    """

    def run(self, workflow: Workflow, cluster: Cluster,
            config: Optional[object] = None) -> SchedulerOutput:
        if workflow.n_tasks == 0:
            return SchedulerOutput(
                mapping=Mapping(workflow, cluster, [], algorithm="HeftList"))

        procs = cluster.processors
        avg_speed = sum(p.speed for p in procs) / len(procs)
        beta = cluster.bandwidth_model.default
        ranks = upward_ranks(workflow, avg_speed, beta)
        order = rank_order(workflow, ranks)

        # cut the priority order into <= k contiguous, work-balanced blocks
        n_blocks = min(cluster.k, workflow.n_tasks)
        total_work = workflow.total_work()
        target = total_work / n_blocks if total_work > 0 else 0.0
        segments: List[List[Hashable]] = [[]]
        acc = 0.0
        for u in order:
            if (segments[-1] and acc >= target * len(segments)
                    and len(segments) < n_blocks):
                segments.append([])
            segments[-1].append(u)
            acc += workflow.work(u)

        seg_of = {u: i for i, seg in enumerate(segments) for u in seg}
        seg_work = [sum(workflow.work(u) for u in seg) for seg in segments]
        cut_cost: Dict[Tuple[int, int], float] = {}
        for u, v, c in workflow.edges():
            su, sv = seg_of[u], seg_of[v]
            if su != sv:
                cut_cost[(su, sv)] = cut_cost.get((su, sv), 0.0) + c

        # greedy earliest-finish-time placement, one distinct processor
        # per block, in block (priority) order
        chosen: List = []
        finish: List[float] = []
        available = list(procs)
        for i, _ in enumerate(segments):
            preds = [(j, cost) for (j, k2), cost in cut_cost.items() if k2 == i]
            best = None
            for p in available:
                ready = 0.0
                for j, cost in preds:
                    arrival = finish[j] + cost / cluster.link_bandwidth(chosen[j], p)
                    if arrival > ready:
                        ready = arrival
                eft = ready + seg_work[i] / p.speed
                key = (eft, -p.speed, p.name)
                if best is None or key < best[0]:
                    best = (key, p)
            proc = best[1]
            available.remove(proc)
            chosen.append(proc)
            finish.append(best[0][0])

        cache = RequirementCache(workflow)
        assignments = []
        for seg, proc in zip(segments, chosen):
            result = cache.requirement(seg)
            assignments.append(BlockAssignment(
                tasks=frozenset(seg), processor=proc,
                requirement=result.peak, traversal=result.order))
        return SchedulerOutput(
            mapping=Mapping(workflow, cluster, assignments, algorithm="HeftList"))


@register_algorithm(
    "cpack", display_name="CPack",
    capabilities=("makespan-optimizing", "list-scheduler", "memory-packing"),
    summary="greedy critical-path packer: decreasing upward-rank order cut "
            "into contiguous memory-feasible segments, packed onto distinct "
            "processors fastest-first; O(n log n) packing decisions, never "
            "violates the memory constraint")
class CPackScheduler:
    """The cheap contender (see :mod:`repro.core.cpack`); takes no config.

    Unlike ``heftlist`` it is memory-aware — every emitted block fits its
    processor — so it gives the expensive heuristics a floor to beat on
    big instances.
    """

    def run(self, workflow: Workflow, cluster: Cluster,
            config: Optional[object] = None) -> SchedulerOutput:
        return SchedulerOutput(mapping=critical_path_pack(workflow, cluster))


@register_algorithm(
    "anneal", display_name="Anneal",
    config_cls=AnnealConfig,
    capabilities=("makespan-optimizing", "refinement", "seeded",
                  "configurable"),
    summary="simulated-annealing refinement (moves to idle processors + "
            "pairwise swaps, Metropolis acceptance) of the best DagHetPart "
            "mapping, priced entirely by the incremental makespan "
            "evaluator; deterministic per seed, never worse than its seed "
            "mapping")
class AnnealScheduler:
    """DagHetPart's best sweep mapping, refined by simulated annealing.

    The seed mapping comes from :func:`dag_het_part_sweep` (its ``k'``
    strategy is the config's ``k_prime_strategy``); the refinement then
    explores move/swap neighbours under a cooling schedule, pricing every
    candidate through :class:`~repro.core.evaluator.MakespanEvaluator` —
    zero full bottom-weight passes after the evaluator initializes. The
    best state ever visited is returned, so the result is never worse
    than the seed; the seed's makespan and the run's acceptance counts
    ride on ``SchedulerOutput.extra``.
    """

    def run(self, workflow: Workflow, cluster: Cluster,
            config: Optional[AnnealConfig] = None) -> SchedulerOutput:
        if config is not None and not isinstance(config, AnnealConfig):
            raise TypeError(
                f"anneal expects an AnnealConfig, got {type(config).__name__}")
        config = config or AnnealConfig()
        cache = RequirementCache(workflow)
        outcome = dag_het_part_sweep(
            workflow, cluster,
            config=DagHetPartConfig(k_prime_strategy=config.k_prime_strategy),
            cache=cache)
        if workflow.n_tasks == 0:
            return SchedulerOutput(mapping=outcome.mapping)

        q = outcome.mapping.to_quotient()
        evaluator = MakespanEvaluator(q, cluster)
        stats = anneal_refine(q, cluster, cache, config=config,
                              evaluator=evaluator)
        mapping = Mapping.from_quotient(q, cluster, cache, algorithm="Anneal")
        return SchedulerOutput(
            mapping=mapping,
            k_prime=outcome.k_prime,
            sweep=outcome.sweep,
            extra={
                "anneal_seed_makespan": stats.initial_makespan,
                "anneal_trials": stats.trials,
                "anneal_accepted": stats.accepted,
            })


@register_algorithm(
    "exact", display_name="Exact",
    config_cls=ExactConfig,
    capabilities=("exact", "reference", "makespan-optimizing",
                  "memory-packing", "tiny-only", "configurable"),
    summary="exhaustive reference solver for tiny instances (<= 8 tasks "
            "by default): enumerates every acyclic, memory-feasible set "
            "partition and branch-and-bounds processor-kind assignments "
            "under uniform bandwidth; provably optimal, used to measure "
            "heuristic optimality gaps")
class ExactScheduler:
    """The optimality yardstick (see :mod:`repro.core.exact`).

    Carries ``tiny-only``: it rejects larger instances with
    ``ValueError``. Searched-space counters ride on
    ``SchedulerOutput.extra``.
    """

    def run(self, workflow: Workflow, cluster: Cluster,
            config: Optional[ExactConfig] = None) -> SchedulerOutput:
        if config is not None and not isinstance(config, ExactConfig):
            raise TypeError(
                f"exact expects an ExactConfig, got {type(config).__name__}")
        mapping, stats = exact_schedule(workflow, cluster, config=config)
        return SchedulerOutput(mapping=mapping, extra=dict(stats))
