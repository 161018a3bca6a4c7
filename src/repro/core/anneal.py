"""Simulated-annealing refinement over a fully-assigned quotient graph.

Step 4 of DagHetPart stops at steepest-descent swaps and idle moves; this
module continues the local search with a Metropolis acceptance rule so
the mapping can escape the local optimum the greedy pass lands in. The
neighborhood is the same move/swap structure the paper's local search
uses — reassign one block to an idle processor, or exchange the
processors of two blocks — so every visited state keeps the DAGP-PM
invariants: blocks on distinct processors, every block within its
processor's memory.

Every candidate is priced through the incremental
:class:`~repro.core.evaluator.MakespanEvaluator`, never a full
bottom-weight recompute: the mutation is applied, one lazy delta sync
prices it at O(ancestors of the touched blocks), and a rejection merely
logs the inverse ops (they fold into the next trial's sync) — so each
Metropolis trial costs exactly one delta pass, which is what makes
thousands of trials cheaper than a handful of full passes (the
refinement bench asserts the full-pass counter stays at zero).

Determinism contract: :class:`AnnealConfig` carries an explicit ``seed``
and the refiner draws every random number from one
``numpy.random.Generator`` built by :func:`repro.utils.rng.make_rng`, so
the same (quotient, cluster, config) triple reproduces the same final
mapping bit-for-bit. The best state ever visited — which starts at the
incoming seed mapping — is restored before returning, so refinement never
ends worse than it began.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.evaluator import MakespanEvaluator
from repro.core.heuristic import check_k_prime_strategy
from repro.core.quotient import BlockId, QuotientGraph
from repro.memdag.requirement import RequirementCache
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.utils.rng import make_rng

#: cooling schedules AnnealConfig.schedule accepts
SCHEDULES = ("geometric", "linear")


@dataclass(frozen=True)
class AnnealConfig:
    """Tuning knobs of the simulated-annealing refiner (all deterministic).

    Attributes
    ----------
    seed:
        RNG seed; the whole refinement is a pure function of it.
    iterations:
        Metropolis trials per restart.
    restarts:
        Independent cooling runs; each restart re-heats from the best
        state found so far (its RNG stream continues, so restarts stay
        deterministic).
    t0:
        Initial temperature; ``None`` derives it as ``t0_fraction`` times
        the seed mapping's makespan.
    t0_fraction:
        Fraction of the seed makespan used when ``t0`` is ``None``.
    t_final_fraction:
        Final temperature as a fraction of ``t0`` (the schedule anneals
        from ``t0`` down to ``t0 * t_final_fraction``).
    schedule:
        ``"geometric"`` (exponential decay) or ``"linear"``.
    move_fraction:
        Probability a trial proposes a move-to-idle-processor; the rest
        propose pairwise swaps.
    time_budget:
        Optional wall-clock cap in seconds checked between trials; the
        one knob that trades determinism for latency (leave ``None`` for
        reproducible runs).
    k_prime_strategy:
        Forwarded to the ``dag_het_part_sweep`` call that produces the
        seed mapping (used by the registered ``anneal`` scheduler, not by
        :func:`anneal_refine` itself).
    """

    seed: int = 0
    iterations: int = 1000
    restarts: int = 1
    t0: Optional[float] = None
    t0_fraction: float = 0.05
    t_final_fraction: float = 1e-3
    schedule: str = "geometric"
    move_fraction: float = 0.5
    time_budget: Optional[float] = None
    k_prime_strategy: str = "auto"

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.t0 is not None and self.t0 <= 0:
            raise ValueError(f"t0 must be positive, got {self.t0}")
        if self.t0_fraction <= 0:
            raise ValueError(f"t0_fraction must be positive, got {self.t0_fraction}")
        if not 0 < self.t_final_fraction <= 1:
            raise ValueError(f"t_final_fraction must be in (0, 1], "
                             f"got {self.t_final_fraction}")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"unknown schedule {self.schedule!r}; "
                             f"valid: {', '.join(SCHEDULES)}")
        if not 0 <= self.move_fraction <= 1:
            raise ValueError(f"move_fraction must be in [0, 1], "
                             f"got {self.move_fraction}")
        if self.time_budget is not None and self.time_budget <= 0:
            raise ValueError(f"time_budget must be positive, got {self.time_budget}")
        check_k_prime_strategy(self.k_prime_strategy)


@dataclass(frozen=True)
class AnnealStats:
    """What one :func:`anneal_refine` run did.

    ``initial_makespan`` is the seed mapping's, ``final_makespan`` the
    restored best — never larger. ``trials`` counts Metropolis proposals
    actually priced (infeasible draws are skipped but still consume the
    RNG stream), ``accepted`` the ones applied, ``improved`` how often the
    best state advanced.
    """

    initial_makespan: float
    final_makespan: float
    trials: int = 0
    accepted: int = 0
    improved: int = 0
    restarts: int = 1
    moves_applied: int = 0
    swaps_applied: int = 0


def _temperature(config: AnnealConfig, t0: float, i: int) -> float:
    """Temperature of trial ``i`` in ``0..iterations-1`` (t0 → t0*final)."""
    span = max(config.iterations - 1, 1)
    frac = i / span
    if config.schedule == "geometric":
        return t0 * (config.t_final_fraction ** frac)
    return t0 * (1.0 - frac * (1.0 - config.t_final_fraction))


def anneal_refine(q: QuotientGraph, cluster: Cluster, cache: RequirementCache,
                  config: Optional[AnnealConfig] = None,
                  evaluator: Optional[MakespanEvaluator] = None) -> AnnealStats:
    """Refine a fully-assigned quotient in place; returns the run's stats.

    ``q`` must have every block on a distinct processor (the state a
    DagHetPart sweep ends in). Candidates are priced through
    ``evaluator`` (created here when ``None``) — no full bottom-weight
    pass happens after the evaluator's initialization. On return ``q``
    holds the best assignment ever visited, which is never worse than the
    one it arrived with.
    """
    config = config or AnnealConfig()
    ev = evaluator if evaluator is not None else MakespanEvaluator(q, cluster)
    rng = make_rng(config.seed)

    ids: List[BlockId] = sorted(q.blocks)
    current = ev.makespan()
    best_mu = current
    best: Dict[BlockId, Optional[Processor]] = {
        bid: q.blocks[bid].proc for bid in ids}
    stats = dict(trials=0, accepted=0, improved=0, moves=0, swaps=0)
    initial = current

    if len(ids) < 1 or config.iterations == 0:
        return AnnealStats(initial_makespan=initial, final_makespan=best_mu,
                           restarts=0)

    requirement: Dict[BlockId, float] = {
        bid: cache.peak(q.blocks[bid].tasks) for bid in ids}
    t0 = config.t0 if config.t0 is not None else config.t0_fraction * initial
    deadline = (time.monotonic() + config.time_budget
                if config.time_budget is not None else None)

    restarts_run = 0
    for _ in range(config.restarts):
        if deadline is not None and time.monotonic() >= deadline:
            break
        restarts_run += 1
        # re-heat from the best state found so far
        for bid in ids:
            if q.blocks[bid].proc is not best[bid]:
                q.set_proc(bid, best[bid])
        current = ev.makespan()
        for i in range(config.iterations):
            if deadline is not None and time.monotonic() >= deadline:
                break
            propose_move = rng.random() < config.move_fraction
            if propose_move:
                bid = ids[int(rng.integers(len(ids)))]
                used = q.used_processors()
                idle = [p for p in cluster.by_speed_desc()
                        if p.name not in used
                        and requirement[bid] <= p.memory]
                if not idle:
                    continue
                target = idle[int(rng.integers(len(idle)))]
                old_proc = q.blocks[bid].proc
                q.set_proc(bid, target)
            else:
                if len(ids) < 2:
                    continue
                a = ids[int(rng.integers(len(ids)))]
                b = ids[int(rng.integers(len(ids)))]
                if a == b:
                    continue
                pa, pb = q.blocks[a].proc, q.blocks[b].proc
                if pa is pb:
                    continue
                if requirement[a] > pb.memory or requirement[b] > pa.memory:
                    continue
                q.set_proc(a, pb)
                q.set_proc(b, pa)

            # one delta sync prices the mutated state; on rejection the
            # inverse ops are only logged — they fold into the next
            # trial's sync — so every trial costs a single delta pass
            mu = ev.makespan()
            stats["trials"] += 1
            delta = mu - current
            if delta > 0:
                t = _temperature(config, t0, i)
                if t <= 0 or rng.random() >= math.exp(-delta / t):
                    if propose_move:
                        q.set_proc(bid, old_proc)
                    else:
                        q.set_proc(a, pa)
                        q.set_proc(b, pb)
                    continue
            if propose_move:
                stats["moves"] += 1
            else:
                stats["swaps"] += 1
            stats["accepted"] += 1
            current = mu
            if current < best_mu:
                best_mu = current
                best = {bid: q.blocks[bid].proc for bid in ids}
                stats["improved"] += 1

    # restore the best state ever visited (>= the incoming seed mapping)
    for bid in ids:
        if q.blocks[bid].proc is not best[bid]:
            q.set_proc(bid, best[bid])
    final = ev.makespan()
    return AnnealStats(
        initial_makespan=initial,
        final_makespan=final,
        trials=stats["trials"],
        accepted=stats["accepted"],
        improved=stats["improved"],
        restarts=restarts_run,
        moves_applied=stats["moves"],
        swaps_applied=stats["swaps"],
    )
