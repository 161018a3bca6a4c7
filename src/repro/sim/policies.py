"""Reaction policies: what the simulator does when a perturbation lands.

A policy is a plain function ``policy(ctx)``: it receives the engine's
:class:`~repro.sim.engine.EngineContext` (pending blocks that need a
processor, re-mappable blocks that have not started, the free processor
list, and the shared incremental
:class:`~repro.core.evaluator.MakespanEvaluator`) and mutates the plan
through the context's ``place`` / ``replace_remaining`` methods. A fixed
table names the three policies (each function's name is its key):

``static``
    Never re-plans. Forced repairs only: orphaned blocks and arriving
    jobs go to the fastest feasible free processor, no pricing.
``resolve``
    Cold full re-solve: the not-yet-started remainder is re-submitted to
    a registered scheduling algorithm as a fresh problem on the free
    processors. Pays full solver latency at every event.
``warmstart``
    Incremental repair seeded from the surviving mapping: each pending
    block is placed at the argmin of :meth:`MakespanEvaluator.eval_move`
    over the feasible free processors — priced through delta updates,
    zero full bottom-weight passes — optionally followed by one
    delta-priced improvement sweep over the movable blocks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Tuple

from repro.platform.processor import Processor
from repro.utils.registry import lookup

if TYPE_CHECKING:
    from repro.sim.engine import EngineContext

__all__ = ["available_policies", "get_policy"]

Policy = Callable[["EngineContext"], None]


def _feasible(ctx: EngineContext, bid: int,
              procs: List[Processor]) -> List[Processor]:
    req = ctx.requirement(bid)
    return [p for p in procs if req <= p.memory]


def static(ctx: EngineContext) -> None:
    """Fastest-feasible-free placement, no pricing, no re-mapping."""
    for bid in ctx.pending():
        procs = _feasible(ctx, bid, ctx.free_processors())
        if not procs:
            continue  # stays deferred; the engine retries later
        best = min(procs, key=lambda p: (-p.speed, -p.memory, p.name))
        ctx.place(bid, best)


def warmstart(ctx: EngineContext) -> None:
    """Argmin-``eval_move`` placement plus an optional improvement sweep.

    Every price is a delta sync of the shared evaluator (the surviving
    bottom-weight table is the warm start) — zero full passes per event,
    which is what the CI warm-start gate asserts.
    """
    ev = ctx.evaluator
    for bid in ctx.pending():
        procs = _feasible(ctx, bid, ctx.free_processors())
        if not procs:
            continue
        best = min(procs, key=lambda p: (ev.eval_move(bid, p),
                                         -p.speed, p.name))
        ctx.place(bid, best)
    if not ctx.warm_sweep:
        return
    # one delta-priced sweep: move a not-yet-started block to a free
    # processor when that strictly improves the projected makespan
    for bid in ctx.movable():
        procs = _feasible(ctx, bid, ctx.free_processors())
        if not procs:
            continue
        current = ev.makespan()
        prices = [(ev.eval_move(bid, p), -p.speed, p.name, p)
                  for p in procs]
        mu, _, _, best = min(prices, key=lambda t: t[:3])
        if mu < current:
            ctx.place(bid, best)


def resolve(ctx: EngineContext) -> None:
    """Re-submit the not-yet-started remainder as a fresh problem.

    Builds a sub-workflow of every pending + movable block's tasks, a
    sub-cluster of the free processors (plus the ones currently holding
    only re-planned blocks), and runs the configured algorithm cold.
    Communication with already-running blocks is not visible to the
    solver (it optimizes the remainder internally); the realized replay
    still charges those boundary transfers. Falls back to static-style
    forced placement when the cold solve fails.
    """
    from repro.api.batch import solve
    from repro.api.envelopes import ScheduleRequest
    from repro.workflow.graph import Workflow

    pending = ctx.pending()
    movable = ctx.movable()
    replan = pending + movable
    if not replan:
        return
    tasks = set()
    for bid in replan:
        tasks |= set(ctx.block_tasks(bid))
    # insertion order feeds the solver; sort by repr so mixed
    # int/tuple task ids order the same way in every process
    ordered = sorted(tasks, key=repr)

    sub = Workflow(name=f"resolve@{ctx.time:g}")
    wf = ctx.wf
    for u in ordered:
        sub.add_task(u, work=wf.work(u), memory=wf.memory(u))
    for u in ordered:
        for v, c in wf.out_edges(u):
            if v in tasks:
                sub.add_edge(u, v, c)

    # free processors plus those currently holding only blocks being
    # re-planned (a movable block's own processor is up for grabs)
    procs: Dict[str, Processor] = {p.name: p
                                   for p in ctx.free_processors()}
    for bid in movable:
        proc = ctx.q.blocks[bid].proc
        if proc is not None:
            procs[proc.name] = proc
    if not procs:
        return
    from repro.platform.cluster import Cluster
    sub_cluster = Cluster(
        [procs[name] for name in sorted(procs)],
        bandwidth=ctx.cluster.bandwidth,
        name=f"{ctx.cluster.name}-live",
        bandwidth_model=ctx.cluster.bandwidth_model)

    result = solve(ScheduleRequest(
        workflow=sub, cluster=sub_cluster, algorithm=ctx.algorithm,
        scale_memory=False, validate=False, want_mapping=True))
    if result.failure is not None or result.mapping is None:
        # cold solver found nothing; forced placement keeps the
        # simulation live and the comparison honest
        static(ctx)
        return
    ctx.replace_remaining(
        [(a.tasks, a.processor) for a in result.mapping.assignments])


#: canonical name -> policy function
_POLICIES: Dict[str, Policy] = {fn.__name__: fn
                                for fn in (resolve, static, warmstart)}


def available_policies() -> Tuple[str, ...]:
    """Sorted names of the reaction policies."""
    return tuple(sorted(_POLICIES))


def get_policy(name: str) -> Policy:
    """The policy function ``name`` canonicalizes to (its ``__name__`` is
    the canonical key); unknown names list the valid ones."""
    return lookup("reaction policy", _POLICIES, name)
