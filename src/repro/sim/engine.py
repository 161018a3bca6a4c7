"""Deterministic event-driven replay of a computed mapping.

:class:`SimEngine` takes a solved :class:`~repro.core.mapping.Mapping`
and a :class:`~repro.sim.events.DynamicsSpec` and replays the plan under
a virtual clock, applying the compiled perturbation stream event by
event. Between events the projection is the same forward recursion that
defines the bottom-weight makespan (``start = max(ready, placed_at,
avail)``), so an event-free replay realizes exactly
``Mapping.makespan()`` — that undisturbed value is the robustness
baseline every disturbed run is measured against.

Execution model
---------------
* Blocks whose projected finish is ``<= t`` when the clock reaches an
  event at ``t`` are *frozen*: their finish times become facts and their
  processor's availability advances.
* Blocks whose projected start is ``< t`` have *started*: they keep
  running (a graceful ``leave`` lets them drain) unless their processor
  *fails*, which kills them — all progress is lost and they re-enter the
  pending pool.
* Everything else is fair game for the reaction policy: pending blocks
  need a processor, not-yet-started blocks may be moved, and wholesale
  re-solves may swap the entire remaining block structure.
* Placements go to *free* live processors only (no incomplete block),
  preserving the model's injectivity; a block no policy can place is
  retried at every event and in a final drain loop.

Per-processor capacity is enforced at placement time; a later runtime
inflation can stretch an already-started block past a successor placed
behind it, transiently oversubscribing the processor in the projection.
That approximation is deliberate — the replay prices plans, it does not
schedule cycles.

Determinism: given one mapping and one spec the event log, migration
counts, and realized makespan are bit-for-bit reproducible (reaction
*latencies* are wall-clock and live outside the log).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.evaluator import MakespanEvaluator
from repro.core.mapping import Mapping
from repro.core.quotient import BlockId, QuotientGraph
from repro.generators.events import subset_mask
from repro.generators.families import generate_workflow
from repro.memdag.requirement import RequirementCache
from repro.platform.processor import Processor
from repro.sim.events import DynamicsSpec, SimEvent
from repro.sim.policies import get_policy
from repro.utils.errors import NoFeasibleMappingError
from repro.utils.rng import make_rng

__all__ = ["SimEngine", "SimReport"]


@dataclass
class SimReport:
    """What one simulation run produced.

    ``events`` is the resolved, JSON-serializable event log (the
    determinism artifact); ``metrics`` holds the flat ``sim_*`` entries
    :func:`repro.api.solve` merges into the result's ``extra`` — latency
    keys end in ``_s`` so the scenario differ knows to skip them.
    """

    policy: str
    baseline: float
    realized: float
    events: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)

    @property
    def degradation_pct(self) -> float:
        if self.baseline <= 0:
            return 0.0
        return 100.0 * (self.realized / self.baseline - 1.0)


class EngineContext:
    """The engine's live view handed to a reaction policy at one event.

    Read surface: ``time``, ``event``, ``wf``, ``q``, ``cluster``,
    ``evaluator``, ``algorithm``, ``warm_sweep``, ``free_processors()``,
    ``pending()``, ``movable()``, ``requirement(bid)``,
    ``block_tasks(bid)``. Write surface: ``place(bid, proc)`` (assign a
    pending or movable block to a *free* processor) and
    ``replace_remaining(assignments)`` (swap the whole not-yet-started
    plan for a new block structure).
    """

    def __init__(self, engine: "SimEngine", event: SimEvent,
                 started: Set[BlockId]):
        self.engine = engine
        self.event = event
        self.time = engine.now
        self.wf = engine.wf
        self.q = engine.q
        self.cluster = engine.cluster
        self.algorithm = engine.algorithm
        self.warm_sweep = engine.dynamics.warm_sweep
        self._started_set = started

    @property
    def evaluator(self) -> MakespanEvaluator:
        return self.engine.evaluator

    # -- read surface --------------------------------------------------
    def free_processors(self) -> List[Processor]:
        eng = self.engine
        occupied = {blk.proc.name for bid, blk in eng.q.blocks.items()
                    if bid not in eng.completed and blk.proc is not None}
        return sorted((p for n, p in eng.live.items() if n not in occupied),
                      key=lambda p: (-p.speed, -p.memory, p.name))

    def pending(self) -> List[BlockId]:
        eng = self.engine
        return sorted(eng.pending_since,
                      key=lambda b: (eng.pending_since[b], b))

    def movable(self) -> List[BlockId]:
        eng = self.engine
        out = []
        for bid in sorted(eng.q.blocks):
            if bid in eng.completed or bid in self._started_set:
                continue
            blk = eng.q.blocks[bid]
            if blk.proc is None or blk.proc.name not in eng.live:
                continue
            out.append(bid)
        return out

    def requirement(self, bid: BlockId) -> float:
        return self.engine._requirement(bid)

    def block_tasks(self, bid: BlockId):
        return frozenset(self.engine.q.blocks[bid].tasks)

    # -- write surface -------------------------------------------------
    def place(self, bid: BlockId, proc: Processor) -> None:
        eng = self.engine
        if bid in eng.completed or bid in self._started_set:
            raise ValueError(f"block {bid} already started; cannot (re)place")
        if proc.name not in eng.live:
            raise ValueError(f"processor {proc.name!r} is not live")
        occupied = {blk.proc.name for b, blk in eng.q.blocks.items()
                    if b not in eng.completed and blk.proc is not None
                    and b != bid}
        if proc.name in occupied:
            raise ValueError(
                f"processor {proc.name!r} already hosts an incomplete block")
        eng._place(bid, proc, at=eng.now)

    def replace_remaining(self, assignments) -> None:
        self.engine._replace_remaining(self, assignments)


class SimEngine:
    """Replay ``mapping`` under ``dynamics``; see the module docstring."""

    def __init__(self, mapping: Mapping, dynamics: DynamicsSpec,
                 policy: Optional[str] = None,
                 algorithm: Optional[str] = None):
        self.dynamics = dynamics
        self.policy_name = policy or dynamics.policy
        self.algorithm = (dynamics.algorithm or algorithm
                          or mapping.algorithm or "cpack")

        # private copies: the engine mutates both graph and quotient
        self.wf = mapping.workflow.copy()
        self.cluster = mapping.cluster
        self.q = QuotientGraph.from_partition(
            self.wf,
            [set(a.tasks) for a in mapping.assignments],
            [a.processor for a in mapping.assignments])
        self.evaluator = MakespanEvaluator(self.q, self.cluster)
        self._full_passes_prior = 0

        self.live: Dict[str, Processor] = {p.name: p
                                           for p in self.cluster.processors}
        self._known: Dict[str, Processor] = dict(self.live)
        self.avail: Dict[str, float] = {}
        self.placed_at: Dict[BlockId, float] = {}
        self.completed: Dict[BlockId, float] = {}
        self.pending_since: Dict[BlockId, float] = {}
        self._prev_proc: Dict[BlockId, Optional[str]] = {}
        self._req: Dict[BlockId, float] = {
            bid: a.requirement
            for bid, a in zip(self.q.blocks, mapping.assignments)}
        self._reqcache: Optional[RequirementCache] = None

        self.now = 0.0
        self.baseline = 0.0
        self.migrations = 0
        self.replans = 0
        self.arrived_tasks = 0
        self.killed_blocks = 0
        self.counts = {k: 0 for k in
                       ("arrival", "fail", "leave", "join", "inflate")}
        self.react_total = 0.0
        self.react_max = 0.0
        self.log: List[Dict[str, Any]] = []
        self._schedule: Dict[BlockId, Tuple[float, float]] = {}
        self._n_jobs = 0

    # ------------------------------------------------------------------
    @property
    def full_passes(self) -> int:
        """Full bottom-weight passes beyond the unavoidable warm-up pass.

        The CI warm-start gate asserts this stays 0 for the ``warmstart``
        policy: every repair is priced through evaluator deltas.
        """
        return (self._full_passes_prior
                + self.evaluator.full_recomputes - 1)

    # ------------------------------------------------------------------
    def run(self) -> SimReport:
        react = get_policy(self.policy_name)
        self._schedule = self._forward()
        if len(self._schedule) != len(self.q.blocks):
            raise NoFeasibleMappingError(
                "initial mapping leaves blocks unscheduled")
        self.baseline = max((f for _, f in self._schedule.values()),
                            default=0.0)
        scale = (self.baseline
                 if self.dynamics.relative_times and self.baseline > 0
                 else 1.0)

        for ev0 in self.dynamics.compile():
            t = ev0.time * scale
            self.now = t
            self._freeze(t)
            started = self._started(t)
            resolved = self._apply(replace(ev0, time=t), started)
            self.counts[resolved.kind] += 1
            ctx = EngineContext(self, resolved, started)
            tic = perf_counter()
            react(ctx)
            latency = perf_counter() - tic
            self.react_total += latency
            self.react_max = max(self.react_max, latency)
            self._schedule = self._forward()
            record = dict(resolved.to_dict())
            record["migrations_total"] = self.migrations
            record["deferred"] = len(self.pending_since)
            record["plan_makespan"] = self._projected()
            self.log.append(record)

        self._drain()
        realized = self._projected()
        report = SimReport(policy=react.__name__, baseline=self.baseline,
                           realized=realized, events=self.log)
        report.metrics = {
            "sim_policy": react.__name__,
            "sim_events": len(self.log),
            "sim_arrivals": self.counts["arrival"],
            "sim_failures": self.counts["fail"],
            "sim_leaves": self.counts["leave"],
            "sim_joins": self.counts["join"],
            "sim_inflations": self.counts["inflate"],
            "sim_arrived_tasks": self.arrived_tasks,
            "sim_killed_blocks": self.killed_blocks,
            "sim_plan_makespan": self.baseline,
            "sim_realized_makespan": realized,
            "sim_degradation_pct": report.degradation_pct,
            "sim_task_migrations": self.migrations,
            "sim_replans": self.replans,
            "sim_full_passes": self.full_passes,
            "sim_react_total_s": self.react_total,
            "sim_react_max_s": self.react_max,
        }
        return report

    # ------------------------------------------------------------------
    # the forward projection (the realized-schedule recursion)
    # ------------------------------------------------------------------
    def _forward(self) -> Dict[BlockId, Tuple[float, float]]:
        """Project (start, finish) for every schedulable incomplete block.

        Kahn order over the incomplete sub-quotient; a block is
        schedulable once it has a processor and every ancestor is
        completed or scheduled. Matches the bottom-weight arithmetic:
        ``ready = max over parents (finish + c / link)``.
        """
        q = self.q
        completed = self.completed
        sched: Dict[BlockId, Tuple[float, float]] = {}
        indeg: Dict[BlockId, int] = {}
        for b in q.blocks:
            if b in completed:
                continue
            indeg[b] = sum(1 for p in q.pred[b] if p not in completed)
        ready = [b for b, d in indeg.items() if d == 0]
        link = self.cluster.link_bandwidth
        head = 0
        while head < len(ready):
            b = ready[head]
            head += 1
            blk = q.blocks[b]
            if blk.proc is not None:
                t0 = max(self.placed_at.get(b, 0.0),
                         self.avail.get(blk.proc.name, 0.0))
                ok = True
                for par, c in q.pred[b].items():
                    if par in completed:
                        pf = completed[par]
                    else:
                        ps = sched.get(par)
                        if ps is None:     # an unplaced ancestor blocks b
                            ok = False
                            break
                        pf = ps[1]
                    t0 = max(t0, pf + c / link(q.blocks[par].proc, blk.proc))
                if ok:
                    sched[b] = (t0, t0 + blk.work / blk.proc.speed)
            for ch in q.succ[b]:
                if ch in indeg:
                    indeg[ch] -= 1
                    if indeg[ch] == 0:
                        ready.append(ch)
        return sched

    def _freeze(self, t: float) -> None:
        """Turn projected finishes ``<= t`` into facts."""
        for b, (_, f) in self._schedule.items():
            if b in self.completed or f > t:
                continue
            self.completed[b] = f
            name = self.q.blocks[b].proc.name
            self.avail[name] = max(self.avail.get(name, 0.0), f)

    def _started(self, t: float) -> Set[BlockId]:
        return {b for b, (s, _) in self._schedule.items()
                if s < t and b not in self.completed}

    def _projected(self) -> float:
        vals = list(self.completed.values())
        vals.extend(f for _, f in self._schedule.values())
        return max(vals, default=0.0)

    # ------------------------------------------------------------------
    # event application
    # ------------------------------------------------------------------
    def _apply(self, ev: SimEvent, started: Set[BlockId]) -> SimEvent:
        if ev.kind == "arrival":
            return self._apply_arrival(ev)
        if ev.kind in ("fail", "leave"):
            return self._apply_churn(ev, started)
        if ev.kind == "join":
            return self._apply_join(ev)
        return self._apply_inflate(ev)

    def _apply_arrival(self, ev: SimEvent) -> SimEvent:
        job = generate_workflow(ev.family, ev.n_tasks, seed=ev.seed)
        prefix = f"job{self._n_jobs}"
        self._n_jobs += 1
        node_of = {}
        for u in job.tasks():
            node = (prefix, u)
            self.wf.add_task(node, work=job.work(u), memory=job.memory(u))
            node_of[u] = node
        for u, v, c in job.edges():
            self.wf.add_edge(node_of[u], node_of[v], c)
        bid = self.q.add_block(set(node_of.values()))
        self.pending_since[bid] = self.now
        self.arrived_tasks += len(node_of)
        return ev

    def _apply_churn(self, ev: SimEvent, started: Set[BlockId]) -> SimEvent:
        if ev.processor:
            if ev.processor not in self.live:
                return replace(ev, processor="")    # victim already gone
            victim = ev.processor
        else:
            pool = sorted(self.live)
            if not pool:
                return replace(ev, processor="")
            victim = pool[ev.pick % len(pool)]
        self.live.pop(victim)
        for bid in sorted(self.q.blocks):
            if bid in self.completed:
                continue
            blk = self.q.blocks[bid]
            if blk.proc is None or blk.proc.name != victim:
                continue
            if ev.kind == "leave" and bid in started:
                continue        # graceful: in-flight work drains
            self._prev_proc[bid] = victim
            self.q.set_proc(bid, None)
            self.placed_at.pop(bid, None)
            self.pending_since[bid] = self.now
            if ev.kind == "fail":
                self.killed_blocks += 1
                # its progress is gone: the block is startable again
                started.discard(bid)
        if ev.kind == "fail":
            self.avail.pop(victim, None)
        return replace(ev, processor=victim)

    def _apply_join(self, ev: SimEvent) -> SimEvent:
        name = ev.processor or "joined"
        while name in self._known:
            name += "+"
        proc = Processor(name=name, speed=ev.speed, memory=ev.memory,
                         kind=ev.proc_kind or "joined")
        self.live[name] = proc
        self._known[name] = proc
        self.avail[name] = self.now
        return replace(ev, processor=name)

    def _apply_inflate(self, ev: SimEvent) -> SimEvent:
        bids = [b for b in sorted(self.q.blocks) if b not in self.completed]
        if not bids:
            return ev
        mask = subset_mask(len(bids), ev.fraction, make_rng(ev.seed))
        for bid, chosen in zip(bids, mask):
            if not chosen:
                continue
            blk = self.q.blocks[bid]
            for u in blk.tasks:
                self.wf.set_work(u, self.wf.work(u) * ev.factor)
            self.q.set_work(bid, blk.work * ev.factor)
        return ev

    # ------------------------------------------------------------------
    # plan mutation (called through the context)
    # ------------------------------------------------------------------
    def _requirement(self, bid: BlockId) -> float:
        r = self._req.get(bid)
        if r is None:
            if self._reqcache is None:
                self._reqcache = RequirementCache(self.wf)
            r = self._reqcache.requirement(self.q.blocks[bid].tasks).peak
            self._req[bid] = r
        return r

    def _place(self, bid: BlockId, proc: Processor, at: float) -> None:
        blk = self.q.blocks[bid]
        old = (blk.proc.name if blk.proc is not None
               else self._prev_proc.get(bid))
        self.q.set_proc(bid, proc)
        self.placed_at[bid] = at
        self.pending_since.pop(bid, None)
        if old is not None and old != proc.name:
            self.migrations += len(blk.tasks)
        self._prev_proc.pop(bid, None)

    def _replace_remaining(self, ctx: EngineContext, assignments) -> None:
        """Swap the whole not-yet-started plan for ``assignments``.

        ``assignments`` is a list of ``(tasks, processor)`` pairs that
        must cover exactly the union of the pending + movable blocks'
        tasks; frozen (completed / started) blocks are carried over
        untouched, the evaluator restarts cold (one full pass — this is
        the ``resolve`` policy's price), and migrations are counted per
        task against the pre-event placement.
        """
        replan = set(ctx.pending()) | set(ctx.movable())
        old_q = self.q
        replan_tasks = set()
        old_proc_of: Dict[Any, Optional[str]] = {}
        for bid in replan:
            blk = old_q.blocks[bid]
            name = (blk.proc.name if blk.proc is not None
                    else self._prev_proc.get(bid))
            for u in blk.tasks:
                replan_tasks.add(u)
                old_proc_of[u] = name

        new_tasks = set()
        frozen_procs = {old_q.blocks[b].proc.name for b in old_q.blocks
                        if b not in replan and b not in self.completed
                        and old_q.blocks[b].proc is not None}
        seen_procs = set()
        for tasks, proc in assignments:
            new_tasks |= set(tasks)
            if proc.name not in self.live:
                raise ValueError(f"processor {proc.name!r} is not live")
            if proc.name in frozen_procs or proc.name in seen_procs:
                raise ValueError(
                    f"processor {proc.name!r} is not free for re-planning")
            seen_procs.add(proc.name)
        if new_tasks != replan_tasks:
            raise ValueError("replacement assignments must cover exactly "
                             "the re-planned tasks")

        partition, procs, carried = [], [], []
        for bid in old_q.blocks:
            if bid in replan:
                continue
            blk = old_q.blocks[bid]
            partition.append(set(blk.tasks))
            procs.append(blk.proc)
            carried.append(bid)
        for tasks, proc in assignments:
            partition.append(set(tasks))
            procs.append(proc)
            carried.append(None)

        new_q = QuotientGraph.from_partition(self.wf, partition, procs)
        completed, placed_at, req = {}, {}, {}
        for new_bid, old_bid in zip(new_q.blocks, carried):
            if old_bid is None:
                placed_at[new_bid] = self.now
                nblk = new_q.blocks[new_bid]
                for u in nblk.tasks:
                    old = old_proc_of.get(u)
                    if old is not None and old != nblk.proc.name:
                        self.migrations += 1
            else:
                if old_bid in self.completed:
                    completed[new_bid] = self.completed[old_bid]
                if old_bid in self.placed_at:
                    placed_at[new_bid] = self.placed_at[old_bid]
                if old_bid in self._req:
                    req[new_bid] = self._req[old_bid]

        self.q = new_q
        self.completed = completed
        self.placed_at = placed_at
        self._req = req
        self.pending_since = {}
        self._prev_proc = {}
        self._full_passes_prior += self.evaluator.full_recomputes
        self.evaluator = MakespanEvaluator(new_q, self.cluster)
        self.replans += 1
        ctx.q = new_q          # the context outlives the swap briefly

    # ------------------------------------------------------------------
    # final drain: place every still-deferred block
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Place deferred blocks one at a time at their earliest release.

        Candidates are live processors with enough memory; each placement
        lands at ``max(deferral time, availability, projected finishes on
        that processor)``. A processor hosting a block that is itself
        waiting on an unplaced ancestor is used only as a last resort.
        Raises :class:`NoFeasibleMappingError` when a block fits nowhere.
        """
        guard = 0
        while self.pending_since:
            guard += 1
            if guard > len(self.q.blocks) + 10_000:
                raise RuntimeError("placement drain failed to converge")
            sched = self._forward()
            bid = min(self.pending_since,
                      key=lambda b: (self.pending_since[b], b))
            need = self._requirement(bid)
            cands = [p for p in self.live.values() if need <= p.memory]
            if not cands:
                blk = self.q.blocks[bid]
                raise NoFeasibleMappingError(
                    f"deferred block of {len(blk.tasks)} task(s) "
                    f"(requirement {need:g}) fits no live processor",
                    unplaced_tasks=len(blk.tasks))
            scored = []
            for p in cands:
                rel = max(self.avail.get(p.name, 0.0),
                          self.pending_since[bid])
                blocked = False
                for b in self.q.blocks:
                    if b in self.completed or b == bid:
                        continue
                    blk = self.q.blocks[b]
                    if blk.proc is None or blk.proc.name != p.name:
                        continue
                    here = sched.get(b)
                    if here is None:
                        blocked = True
                    else:
                        rel = max(rel, here[1])
                scored.append((blocked, rel, -p.speed, p.name, p))
            scored.sort(key=lambda s: s[:4])
            _, rel, _, _, best = scored[0]
            self._place(bid, best, at=rel)
        self._schedule = self._forward()
        missing = [b for b in self.q.blocks
                   if b not in self.completed and b not in self._schedule]
        if missing:
            raise RuntimeError(
                f"unschedulable blocks remain after drain: {missing}")
