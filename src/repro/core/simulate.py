"""Task-level execution simulation and schedule export.

The paper's makespan model charges a whole block before any of its output
is communicated: "some tasks may finish before the block finishes, and
their successors could start earlier, but we do not consider this
possibility, hence providing in fact an overestimation of the makespan."

:func:`simulate_task_level` executes a mapping at *task* granularity —
each processor runs its block's tasks in the block's recorded traversal
order, and a task starts as soon as its processor is free and all parent
outputs have arrived (parent finish time plus link transfer time for
cross-processor edges). The resulting makespan quantifies how loose the
block-level bound is on real mappings; the tests check that the
block-level makespan is never below it on DagHetMem and DagHetPart
mappings. No bench reports the gap.

This is a separate, finer model, not a view of the block-level replay in
:mod:`repro.sim.engine`, which prices plans under the paper's model.

:func:`gantt_text` renders either schedule as an ASCII timeline, and
:func:`schedule_to_dict` exports machine-readable start/finish times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from repro.core.mapping import Mapping
from repro.utils.errors import InvalidPartitionError

Node = Hashable


@dataclass(frozen=True)
class TaskEvent:
    """One task execution in the simulated schedule."""

    task: Node
    processor: str
    start: float
    finish: float


def simulate_task_level(mapping: Mapping) -> Tuple[float, List[TaskEvent]]:
    """Execute ``mapping`` at task granularity; returns (makespan, events).

    Semantics:

    * each processor executes its block's tasks **in the traversal order**
      recorded in the mapping (the order realizing the block's memory
      requirement — reordering could violate the memory constraint);
    * a task starts when its processor finished the previous task of the
      block AND every parent's output has arrived; outputs of a parent on
      the same processor are available at the parent's finish; outputs
      from another processor arrive ``c / link_bandwidth`` after the
      parent finishes;
    * task ``u`` runs for ``w_u / s`` on its processor.
    """
    wf = mapping.workflow
    cluster = mapping.cluster

    proc_of: Dict[Node, str] = {}
    speed: Dict[str, float] = {}
    queues: List[Tuple[str, Tuple[Node, ...]]] = []
    for a in mapping.assignments:
        for u in a.tasks:
            proc_of[u] = a.processor.name
        speed[a.processor.name] = a.processor.speed
        queues.append((a.processor.name, tuple(a.traversal)))

    if set(proc_of) != set(wf.tasks()):
        raise InvalidPartitionError("mapping does not cover the workflow")

    finish: Dict[Node, float] = {}
    proc_free: Dict[str, float] = {name: 0.0 for name, _ in queues}
    pointers = [0] * len(queues)
    events: List[TaskEvent] = []
    remaining = wf.n_tasks

    while remaining > 0:
        progressed = False
        for qi, (proc_name, order) in enumerate(queues):
            while pointers[qi] < len(order):
                u = order[pointers[qi]]
                if any(p not in finish for p in wf.parents(u)):
                    break  # this block is blocked on another processor
                ready = proc_free[proc_name]
                for p, c in wf.in_edges(u):
                    if proc_of[p] == proc_name:
                        arrival = finish[p]
                    else:
                        link = cluster.link_bandwidth(
                            cluster[proc_of[p]], cluster[proc_name])
                        arrival = finish[p] + c / link
                    ready = max(ready, arrival)
                end = ready + wf.work(u) / speed[proc_name]
                finish[u] = end
                proc_free[proc_name] = end
                events.append(TaskEvent(u, proc_name, ready, end))
                pointers[qi] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise InvalidPartitionError(
                "simulation deadlock: traversal orders are inconsistent "
                "with the task dependencies")

    makespan = max((e.finish for e in events), default=0.0)
    events.sort(key=lambda e: (e.start, e.processor))
    return makespan, events


def schedule_to_dict(mapping: Mapping) -> Dict:
    """Machine-readable schedule: per-task processor, start, finish."""
    makespan, events = simulate_task_level(mapping)
    return {
        "algorithm": mapping.algorithm,
        "cluster": mapping.cluster.name,
        "block_level_makespan": mapping.makespan(),
        "task_level_makespan": makespan,
        "tasks": [
            {"task": str(e.task), "processor": e.processor,
             "start": e.start, "finish": e.finish}
            for e in events
        ],
    }


def gantt_text(mapping: Mapping, width: int = 72,
               max_rows: int = 40) -> str:
    """ASCII Gantt chart of the task-level schedule.

    One row per (used) processor; each task paints its ``[start, finish)``
    interval with a rotating glyph. Rows beyond ``max_rows`` are elided.
    """
    makespan, events = simulate_task_level(mapping)
    if makespan <= 0 or not events:
        return "(empty schedule)"
    by_proc: Dict[str, List[TaskEvent]] = {}
    for e in events:
        by_proc.setdefault(e.processor, []).append(e)

    glyphs = "#*+o@%=&"
    lines = [f"task-level makespan: {makespan:.2f} "
             f"(block-level bound: {mapping.makespan():.2f})"]
    name_width = max(len(n) for n in by_proc)
    for row, (proc_name, proc_events) in enumerate(sorted(by_proc.items())):
        if row >= max_rows:
            lines.append(f"... {len(by_proc) - max_rows} more processors elided")
            break
        cells = [" "] * width
        for i, e in enumerate(proc_events):
            lo = int(e.start / makespan * (width - 1))
            hi = max(lo + 1, int(e.finish / makespan * (width - 1)) + 1)
            for x in range(lo, min(hi, width)):
                cells[x] = glyphs[i % len(glyphs)]
        lines.append(f"{proc_name.rjust(name_width)} |{''.join(cells)}|")
    return "\n".join(lines)
