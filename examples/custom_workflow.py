"""Mapping your own workflow: build, import, validate, inspect.

Shows the full user-facing path for a hand-written pipeline: construct a
Workflow programmatically (or import a nextflow-style DOT export), define
a custom heterogeneous cluster, schedule it, and read the block schedule
including each block's memory-optimal traversal order.

Run:  python examples/custom_workflow.py
"""

from repro import Cluster, DagHetPartConfig, Processor, Workflow
from repro.api import ScheduleRequest, solve
from repro.ingest.dot import import_dot
from repro.workflow.validation import validate_workflow

VIDEO_PIPELINE_DOT = """
digraph "video-analytics" {
  ingest      [work=40,  memory=8];
  decode      [work=250, memory=24];
  detect      [work=900, memory=48];
  track       [work=350, memory=16];
  transcribe  [work=700, memory=32];
  summarize   [work=120, memory=8];
  index       [work=60,  memory=12];
  ingest -> decode      [cost=20];
  decode -> detect      [cost=16];
  decode -> transcribe  [cost=16];
  detect -> track       [cost=6];
  track -> summarize    [cost=2];
  transcribe -> summarize [cost=3];
  summarize -> index    [cost=1];
}
"""


def main() -> None:
    # 1. Import the DAG from a DOT export and validate the model rules.
    wf = import_dot(VIDEO_PIPELINE_DOT, name="video-analytics")
    validate_workflow(wf, require_single_source=True)
    print(f"imported {wf}: max task requirement "
          f"{wf.max_task_requirement():.0f}")

    # 2. A custom cluster: one big-memory node, two fast small ones.
    cluster = Cluster([
        Processor("bigmem", speed=8.0, memory=120.0),
        Processor("fast-a", speed=24.0, memory=40.0),
        Processor("fast-b", speed=24.0, memory=40.0),
    ], bandwidth=2.0, name="edge-rack")

    # 3. Schedule with the full k' sweep (tiny cluster, so it is cheap);
    #    validate=True re-checks memory, injectivity, and acyclicity.
    result = solve(ScheduleRequest(
        workflow=wf, cluster=cluster, algorithm="daghetpart",
        config=DagHetPartConfig(k_prime_strategy="all"), validate=True))
    result.raise_if_failed()
    mapping = result.mapping
    print(f"makespan: {result.makespan:.2f} time units over "
          f"{result.n_blocks} blocks (winning k'={result.k_prime})\n")

    # 4. Print the executable schedule: per block, the traversal order that
    #    realizes the block's memory requirement.
    for a in sorted(mapping.assignments, key=lambda a: a.processor.name):
        print(f"on {a.processor.name} (speed {a.processor.speed:g}, "
              f"mem {a.processor.memory:g}):")
        print(f"  peak memory {a.requirement:.1f}")
        print(f"  run order: {' -> '.join(str(t) for t in a.traversal)}")


if __name__ == "__main__":
    main()
