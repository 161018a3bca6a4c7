"""Exhaustive reference solver for tiny DAGP-PM instances.

The long-standing "ILP reference" roadmap leftover, closed in spirit:
on instances small enough to enumerate (``n <= max_tasks``, default 8),
``exact`` finds the provably optimal block partition + processor
assignment under the paper's makespan model, giving the heuristics an
optimality-gap yardstick (see the ``optimality_gap`` experiment).

Search space and why it stays tractable:

* **Partitions** — every set partition of the task set into at most
  ``min(k, n)`` blocks is enumerated (Bell(8) = 4140), then filtered by
  quotient acyclicity and per-block memory feasibility.
* **Assignments** — processors of the same *kind* (speed, memory) are
  interchangeable under the paper's uniform-bandwidth model, so the
  assignment search runs over kinds with multiplicity, not over
  individual processors (6 kinds instead of 36 processors on the
  default cluster). A branch-and-bound over fastest-first kind choices
  prunes with the model's monotonicity: makespan never decreases when a
  block slows down, so a partial assignment whose optimistic completion
  (every remaining block on its fastest feasible kind, multiplicity
  ignored) is already no better than the incumbent can be cut.

The solver is exact only under :class:`~repro.platform.bandwidth.
UniformBandwidth` (kind-interchangeability breaks on per-link models)
and refuses anything else — like it refuses oversized instances — with
a loud ``ValueError`` rather than a silently wrong "optimum". It is
registered with the ``tiny-only`` capability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.core.mapping import BlockAssignment, Mapping
from repro.memdag.requirement import RequirementCache
from repro.platform.cluster import Cluster
from repro.utils.errors import NoFeasibleMappingError
from repro.workflow.graph import Workflow

Node = Hashable

#: default ceiling on instance size; Bell(8) = 4140 partitions
DEFAULT_MAX_TASKS = 8

#: feasibility slack, matching Mapping.validate's epsilon
_EPS = 1e-9


@dataclass(frozen=True)
class ExactConfig:
    """Knobs of the exact solver.

    ``max_tasks`` bounds the instances it accepts — raising it grows the
    search as the Bell numbers do (Bell(10) = 115975, Bell(12) ≈ 4.2M),
    so the default stays at the issue's "tiny" scale.
    """

    max_tasks: int = DEFAULT_MAX_TASKS

    def __post_init__(self):
        if self.max_tasks < 1:
            raise ValueError(f"max_tasks must be >= 1, got {self.max_tasks}")


@dataclass(frozen=True)
class _Kind:
    """One processor kind: interchangeable units under uniform bandwidth."""

    speed: float
    memory: float
    units: Tuple  # the actual Processor objects, deterministic order


def _partitions(tasks: Sequence[Node],
                max_blocks: int) -> Iterator[List[List[Node]]]:
    """Every set partition of ``tasks`` into at most ``max_blocks`` blocks.

    Classic restricted-growth recursion: task ``i`` joins an existing
    block or opens a new one, so each partition is generated exactly once.
    """
    blocks: List[List[Node]] = []

    def rec(i: int) -> Iterator[List[List[Node]]]:
        if i == len(tasks):
            yield [list(block) for block in blocks]
            return
        task = tasks[i]
        for block in blocks:
            block.append(task)
            yield from rec(i + 1)
            block.pop()
        if len(blocks) < max_blocks:
            blocks.append([task])
            yield from rec(i + 1)
            blocks.pop()

    yield from rec(0)


def _quotient_edges(workflow: Workflow,
                    block_of: Dict[Node, int],
                    n_blocks: int) -> Optional[List[Dict[int, float]]]:
    """Aggregated inter-block edge costs, or ``None`` on a cyclic quotient."""
    children: List[Dict[int, float]] = [{} for _ in range(n_blocks)]
    indeg = [0] * n_blocks
    for u, v, cost in workflow.edges():
        bu, bv = block_of[u], block_of[v]
        if bu == bv:
            continue
        if bv not in children[bu]:
            indeg[bv] += 1
        children[bu][bv] = children[bu].get(bv, 0.0) + cost
    # Kahn's algorithm on <= max_tasks vertices
    stack = [b for b in range(n_blocks) if indeg[b] == 0]
    seen = 0
    order = []
    while stack:
        b = stack.pop()
        order.append(b)
        seen += 1
        for child in children[b]:
            indeg[child] -= 1
            if indeg[child] == 0:
                stack.append(child)
    if seen != n_blocks:
        return None  # cyclic quotient: merging created a dependency loop
    return children


def _makespan(works: Sequence[float], speeds: Sequence[float],
              children: Sequence[Dict[int, float]], beta: float) -> float:
    """Bottom-weight makespan of one assigned quotient (Section 3.3).

    Mirrors :func:`repro.core.makespan.bottom_weights` under uniform
    bandwidth: ``l_b = w_b/s_b + max_child (c/beta + l_child)``. The
    returned optimum is re-checked against the shared engine when the
    final :class:`Mapping` is built, so the two can never silently drift.
    """
    n = len(works)
    l: List[float] = [0.0] * n
    done = [False] * n
    for root in range(n):
        if done[root]:
            continue
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            b, expanded = stack.pop()
            if done[b]:
                continue
            if expanded:
                best_child = 0.0
                for child, cost in children[b].items():
                    best_child = max(best_child, cost / beta + l[child])
                l[b] = works[b] / speeds[b] + best_child
                done[b] = True
            else:
                stack.append((b, True))
                stack.extend((child, False) for child in children[b])
    return max(l) if l else 0.0


class _AssignmentSearch:
    """Branch-and-bound over kind assignments for one fixed partition."""

    def __init__(self, works: List[float],
                 children: List[Dict[int, float]],
                 feasible: List[List[int]],  # per block, fastest-first
                 kinds: List[_Kind], beta: float):
        self.works = works
        self.children = children
        self.feasible = feasible
        self.kinds = kinds
        self.beta = beta
        self.best: Optional[float] = None
        self.best_choice: Optional[List[int]] = None
        self.leaves = 0

    def lower_bound(self, choice: List[int], upto: int) -> float:
        """Optimistic makespan: undecided blocks get their fastest
        feasible kind with multiplicity ignored (valid by monotonicity)."""
        speeds = [self.kinds[choice[b]].speed if b < upto
                  else self.kinds[self.feasible[b][0]].speed
                  for b in range(len(self.works))]
        return _makespan(self.works, speeds, self.children, self.beta)

    def run(self, budget: Optional[float]) -> None:
        """Explore; ``budget`` (the best makespan across partitions so
        far) seeds the incumbent so hopeless partitions exit early."""
        self.best = budget
        remaining = [len(kind.units) for kind in self.kinds]
        choice = [-1] * len(self.works)

        def rec(b: int) -> None:
            if self.best is not None \
                    and self.lower_bound(choice, b) >= self.best - _EPS:
                return
            if b == len(self.works):
                value = self.lower_bound(choice, b)
                self.leaves += 1
                if self.best is None or value < self.best - _EPS:
                    self.best = value
                    self.best_choice = list(choice)
                return
            for kind_index in self.feasible[b]:
                if remaining[kind_index] == 0:
                    continue
                remaining[kind_index] -= 1
                choice[b] = kind_index
                rec(b + 1)
                choice[b] = -1
                remaining[kind_index] += 1

        rec(0)


def exact_schedule(workflow: Workflow, cluster: Cluster,
                   config: Optional[ExactConfig] = None
                   ) -> Tuple[Mapping, Dict[str, int]]:
    """The optimal mapping of a tiny instance, plus search statistics.

    Raises ``ValueError`` on oversized instances or non-uniform
    bandwidth models (programming errors — the caller picked the wrong
    tool) and :class:`NoFeasibleMappingError` when no partition fits the
    platform's memories (a problem outcome, captured as ``FailureInfo``
    like any other algorithm's).
    """
    from repro.platform.bandwidth import UniformBandwidth

    config = config or ExactConfig()
    n = workflow.n_tasks
    if n == 0:
        return Mapping(workflow, cluster, [], algorithm="Exact"), \
            {"exact_partitions": 0, "exact_feasible": 0,
             "exact_evaluations": 0}
    if n > config.max_tasks:
        raise ValueError(
            f"exact solver accepts at most {config.max_tasks} tasks "
            f"(got {n}); it enumerates every set partition, so larger "
            f"instances belong to the heuristics")
    if not isinstance(cluster.bandwidth_model, UniformBandwidth):
        raise ValueError(
            f"exact solver requires the uniform-bandwidth model "
            f"(got {type(cluster.bandwidth_model).__name__}): processor "
            f"kinds are only interchangeable when every link is equal")

    # group processors into kinds; units sorted by name for determinism
    by_kind: Dict[Tuple[float, float], List] = {}
    for proc in cluster.processors:
        by_kind.setdefault((proc.speed, proc.memory), []).append(proc)
    kinds = [
        _Kind(speed=speed, memory=memory,
              units=tuple(sorted(units, key=lambda p: p.name)))
        for (speed, memory), units in sorted(by_kind.items(), reverse=True)
    ]
    kinds_fastest_first = sorted(
        range(len(kinds)), key=lambda i: (-kinds[i].speed, -kinds[i].memory))

    tasks = workflow.topological_order()
    requirements = RequirementCache(workflow)
    beta = cluster.bandwidth

    stats = {"exact_partitions": 0, "exact_feasible": 0,
             "exact_evaluations": 0}
    best_value: Optional[float] = None
    best_partition: Optional[List[List[Node]]] = None
    best_choice: Optional[List[int]] = None

    for partition in _partitions(tasks, min(cluster.k, n)):
        stats["exact_partitions"] += 1
        block_of = {task: b for b, block in enumerate(partition)
                    for task in block}
        children = _quotient_edges(workflow, block_of, len(partition))
        if children is None:
            continue
        feasible: List[List[int]] = []
        works: List[float] = []
        ok = True
        for block in partition:
            peak = requirements.peak(block)
            viable = [i for i in kinds_fastest_first
                      if peak <= kinds[i].memory + _EPS]
            if not viable:
                ok = False
                break
            feasible.append(viable)
            works.append(sum(workflow.work(task) for task in block))
        if not ok:
            continue
        stats["exact_feasible"] += 1
        search = _AssignmentSearch(works, children, feasible, kinds, beta)
        search.run(best_value)
        stats["exact_evaluations"] += search.leaves
        if search.best_choice is not None:
            best_value = search.best
            best_partition = [list(block) for block in partition]
            best_choice = search.best_choice

    if best_partition is None or best_choice is None:
        raise NoFeasibleMappingError(
            f"exact: no acyclic, memory-feasible partition of "
            f"{workflow.name!r} ({n} task(s)) exists on "
            f"{cluster.name!r}", unplaced_tasks=n)

    # materialize: hand each block a concrete unit of its chosen kind
    next_unit = [0] * len(kinds)
    assignments = []
    for block, kind_index in zip(best_partition, best_choice):
        proc = kinds[kind_index].units[next_unit[kind_index]]
        next_unit[kind_index] += 1
        result = requirements.requirement(block)
        assignments.append(BlockAssignment(
            tasks=frozenset(block), processor=proc,
            requirement=result.peak, traversal=result.order))
    return Mapping(workflow, cluster, assignments, algorithm="Exact"), stats
