"""Validated block-to-processor mappings — the heuristics' output type.

A :class:`Mapping` bundles the partition, the processor of each block, the
block memory requirements (with the traversal realizing them) and the
resulting makespan. :meth:`Mapping.validate` re-checks every DAGP-PM
constraint from scratch, so tests and downstream users never have to trust
a heuristic's internal bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Optional, Sequence, Tuple

from repro.core.makespan import makespan as quotient_makespan
from repro.core.quotient import QuotientGraph
from repro.memdag.requirement import RequirementCache
from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.utils.errors import InvalidPartitionError
from repro.workflow.graph import Workflow

Node = Hashable


@dataclass(frozen=True)
class BlockAssignment:
    """One block of the final mapping."""

    tasks: FrozenSet[Node]
    processor: Processor
    requirement: float
    traversal: Tuple[Node, ...]


class Mapping:
    """A complete solution of the DAGP-PM problem for one workflow/cluster."""

    def __init__(self, workflow: Workflow, cluster: Cluster,
                 assignments: Sequence[BlockAssignment], algorithm: str = ""):
        self.workflow = workflow
        self.cluster = cluster
        self.assignments = list(assignments)
        self.algorithm = algorithm
        self._makespan: Optional[float] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_quotient(cls, q: QuotientGraph, cluster: Cluster,
                      cache: RequirementCache, algorithm: str = "") -> "Mapping":
        """Freeze a fully-assigned quotient graph into a Mapping."""
        assignments = []
        for bid, blk in q.blocks.items():
            if blk.proc is None:
                raise InvalidPartitionError(f"quotient vertex {bid} has no processor")
            result = cache.requirement(blk.tasks)
            assignments.append(BlockAssignment(
                tasks=frozenset(blk.tasks),
                processor=blk.proc,
                requirement=result.peak,
                traversal=result.order,
            ))
        return cls(q.wf, cluster, assignments, algorithm)

    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return len(self.assignments)

    def block_of(self, task: Node) -> BlockAssignment:
        for a in self.assignments:
            if task in a.tasks:
                return a
        raise KeyError(task)

    def to_quotient(self) -> QuotientGraph:
        """Rebuild the quotient graph (with processors) of this mapping."""
        return QuotientGraph.from_partition(
            self.workflow,
            [a.tasks for a in self.assignments],
            [a.processor for a in self.assignments],
        )

    def makespan(self) -> float:
        """The bottom-weight makespan of this mapping (cached)."""
        if self._makespan is None:
            self._makespan = quotient_makespan(self.to_quotient(), self.cluster)
        return self._makespan

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Re-check every DAGP-PM constraint; raises on violation.

        1. blocks are a disjoint cover of the task set;
        2. distinct blocks use distinct processors (injectivity);
        3. every block's requirement fits its processor's memory, and the
           recorded requirement is realized by the recorded traversal;
        4. the quotient graph is acyclic.
        """
        from repro.memdag.model import peak_of_traversal

        seen: set = set()
        for a in self.assignments:
            if a.tasks & seen:
                raise InvalidPartitionError("blocks overlap")
            seen |= a.tasks
        missing = set(self.workflow.tasks()) - seen
        if missing:
            raise InvalidPartitionError(f"{len(missing)} task(s) unmapped")

        names = [a.processor.name for a in self.assignments]
        if len(set(names)) != len(names):
            raise InvalidPartitionError("two blocks mapped to the same processor")

        for a in self.assignments:
            peak = peak_of_traversal(self.workflow, list(a.traversal), set(a.tasks))
            if peak > a.requirement + 1e-9:
                raise InvalidPartitionError(
                    f"recorded requirement {a.requirement} below actual peak {peak}")
            if a.requirement > a.processor.memory + 1e-9:
                raise InvalidPartitionError(
                    f"block requirement {a.requirement:g} exceeds memory "
                    f"{a.processor.memory:g} of {a.processor.name}")

        q = self.to_quotient()
        if not q.is_acyclic():
            raise InvalidPartitionError("quotient graph is cyclic")

    def summary(self) -> Dict[str, float]:
        return {
            "makespan": self.makespan(),
            "n_blocks": float(self.n_blocks),
            "max_requirement": max((a.requirement for a in self.assignments), default=0.0),
        }

    def __repr__(self) -> str:
        return (f"Mapping(algorithm={self.algorithm!r}, blocks={self.n_blocks}, "
                f"makespan={self.makespan():.4g})")


def simulate_mapping(mapping: Mapping) -> float:
    """Forward event simulation of the mapping's execution.

    Computes block finish times with the same model as the bottom-weight
    recursion but *forward* (``finish = exec + max over parents of
    (finish_parent + transfer)``); equality with :meth:`Mapping.makespan`
    is a correctness cross-check used by the tests.
    """
    q = mapping.to_quotient()
    order = q.topological_order()
    if order is None:
        raise InvalidPartitionError("cannot simulate a cyclic quotient")
    cluster = mapping.cluster
    finish: Dict[int, float] = {}
    for bid in order:
        blk = q.blocks[bid]
        ready = 0.0
        for parent, c in q.pred[bid].items():
            link = cluster.link_bandwidth(q.blocks[parent].proc, blk.proc)
            ready = max(ready, finish[parent] + c / link)
        finish[bid] = ready + blk.work / blk.proc.speed
    return max(finish.values()) if finish else 0.0
