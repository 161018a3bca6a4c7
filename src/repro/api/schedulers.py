"""The built-in algorithms, registered as pluggable schedulers.

Importing :mod:`repro.api` loads this module, which populates the registry
with ``daghetmem`` (Section 4.1 baseline), ``daghetpart`` (Section 4.2
four-step heuristic), ``heftlist`` — a memory-oblivious HEFT-style
list scheduler that bounds how much the memory constraint costs —,
``anneal`` — simulated-annealing refinement of the DagHetPart mapping on
the incremental makespan evaluator — and ``portfolio`` — a meta-scheduler
that runs a capability-filtered set of registered algorithms and keeps
the best feasible mapping. Third-party algorithms register the same way;
see :func:`repro.api.registry.register_algorithm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.api.envelopes import SchedulerOutput
from repro.api.registry import (
    algorithm_infos,
    get_algorithm,
    register_algorithm,
)
from repro.core.anneal import AnnealConfig, anneal_refine
from repro.core.baseline import dag_het_mem
from repro.core.cpack import critical_path_pack, rank_order, upward_ranks
from repro.core.evaluator import MakespanEvaluator
from repro.core.exact import ExactConfig, exact_schedule
from repro.core.heuristic import DagHetPartConfig, dag_het_part_sweep
from repro.core.mapping import BlockAssignment, Mapping
from repro.memdag.requirement import RequirementCache
from repro.platform.cluster import Cluster
from repro.utils.errors import NoFeasibleMappingError
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
    processor — so it qualifies for the portfolio's default membership
    and gives the expensive heuristics a floor to beat on big instances.
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

    Carries ``tiny-only`` so the portfolio's default capability filter
    never drafts it onto instances it would reject with ``ValueError``;
    searched-space counters ride on ``SchedulerOutput.extra``.
    """

    def run(self, workflow: Workflow, cluster: Cluster,
            config: Optional[ExactConfig] = None) -> SchedulerOutput:
        if config is not None and not isinstance(config, ExactConfig):
            raise TypeError(
                f"exact expects an ExactConfig, got {type(config).__name__}")
        mapping, stats = exact_schedule(workflow, cluster, config=config)
        return SchedulerOutput(mapping=mapping, extra=dict(stats))


@dataclass(frozen=True)
class PortfolioConfig:
    """Membership and execution knobs of the portfolio meta-scheduler.

    ``algorithms=None`` selects every registered algorithm whose
    capabilities avoid ``exclude_capabilities`` (by default: other meta
    schedulers, to prevent recursion; memory-oblivious baselines, whose
    mappings may violate the memory constraint the portfolio is supposed
    to respect; and tiny-only reference solvers, which raise on the
    instance sizes the portfolio usually sees). Members run with their
    default configs. ``parallel`` fans the member solves out over worker
    processes (0/1 = serial).
    """

    algorithms: Optional[Tuple[str, ...]] = None
    exclude_capabilities: Tuple[str, ...] = ("meta", "memory-oblivious",
                                             "tiny-only")
    parallel: int = 0

    def __post_init__(self):
        if self.algorithms is not None:
            object.__setattr__(self, "algorithms", tuple(self.algorithms))
            if not self.algorithms:
                raise ValueError("portfolio needs at least one algorithm")
        object.__setattr__(self, "exclude_capabilities",
                           tuple(self.exclude_capabilities))

    def fingerprint_fields(self) -> Dict[str, object]:
        """What the result cache should key on (see ``_config_key``).

        The *resolved* member list, not the raw fields: with
        ``algorithms=None`` the membership depends on the live registry,
        so registering a new algorithm must miss old cache lines instead
        of serving a stale winner. ``parallel`` is execution-only — two
        runs differing only in worker count compute the same result — so
        it is deliberately excluded.
        """
        return {"algorithms": list(resolve_portfolio_members(self))}


def resolve_portfolio_members(config: PortfolioConfig) -> Tuple[str, ...]:
    """The portfolio's member algorithms (canonical names, stable order).

    Explicit ``algorithms`` are resolved through the registry (unknown
    names raise, nested meta schedulers are rejected); ``None`` selects
    by capability filter in registry order.
    """
    if config.algorithms is not None:
        names = []
        for name in config.algorithms:
            info = get_algorithm(name)  # raises on unknown names
            if "meta" in info.capabilities:
                raise ValueError(
                    f"portfolio member {name!r} is itself a meta "
                    f"scheduler; nesting is not supported")
            names.append(info.name)
        return tuple(names)
    excluded = set(config.exclude_capabilities)
    return tuple(info.name for info in algorithm_infos()
                 if not (set(info.capabilities) & excluded))


@register_algorithm(
    "portfolio", display_name="Portfolio",
    config_cls=PortfolioConfig,
    capabilities=("meta", "makespan-optimizing", "configurable"),
    summary="meta-scheduler: runs a capability-filtered set of registered "
            "algorithms through solve_batch and keeps the best feasible "
            "mapping (argmin makespan, first member wins ties); the "
            "winner's name rides on the result's extra metadata")
class PortfolioScheduler:
    """Best-of-N over the registry: the per-request argmin of its members.

    Each member runs on the same (workflow, cluster) request via the
    batch façade, so member failures are captured per member and a
    single feasible mapping suffices; only when *every* member fails does
    the portfolio raise :class:`NoFeasibleMappingError`. The winning
    member's display name is reported as ``portfolio_winner`` in
    ``SchedulerOutput.extra`` (and thus on ``ScheduleResult.extra``),
    along with the winner's ``k_prime``/``sweep``.
    """

    def members(self, config: PortfolioConfig) -> Tuple[str, ...]:
        """Resolve the member list (see :func:`resolve_portfolio_members`)."""
        return resolve_portfolio_members(config)

    def run(self, workflow: Workflow, cluster: Cluster,
            config: Optional[PortfolioConfig] = None) -> SchedulerOutput:
        # lazy: repro.api.batch imports the registry this module populates
        from repro.api.batch import solve_batch
        from repro.api.envelopes import ScheduleRequest

        if config is not None and not isinstance(config, PortfolioConfig):
            raise TypeError(
                f"portfolio expects a PortfolioConfig, got "
                f"{type(config).__name__}")
        config = config or PortfolioConfig()
        members = self.members(config)
        if not members:
            raise ValueError(
                "portfolio has no members after capability filtering; "
                "pass PortfolioConfig(algorithms=...) explicitly")

        requests = [ScheduleRequest(workflow=workflow, cluster=cluster,
                                    algorithm=name, want_mapping=True)
                    for name in members]
        results = solve_batch(requests, parallel=config.parallel)

        best = None
        for result in results:
            if result.success and result.mapping is not None \
                    and (best is None or result.makespan < best.makespan):
                best = result
        if best is None:
            raise NoFeasibleMappingError(
                f"portfolio: none of {len(members)} member algorithm(s) "
                f"({', '.join(members)}) found a feasible mapping of "
                f"{workflow.name!r} onto {cluster.name!r}",
                unplaced_tasks=workflow.n_tasks)
        return SchedulerOutput(
            mapping=best.mapping,
            k_prime=best.k_prime,
            sweep=best.sweep,
            extra={
                "portfolio_winner": best.algorithm,
                "portfolio_members": ",".join(members),
            })
