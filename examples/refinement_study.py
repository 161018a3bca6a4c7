"""Refinement study: DagHetPart seed vs simulated annealing.

Maps one genome-like workflow with two registered algorithms — the
four-step ``daghetpart`` heuristic and its simulated-annealing refinement
``anneal`` (seeded from the best sweep mapping, priced entirely by the
incremental makespan evaluator) — then shows what each one achieved.

Run:  python examples/refinement_study.py
(set REPRO_EXAMPLE_SCALE=10 for a tiny smoke-test corpus, as CI does)
"""

import os

from repro import default_cluster, generate_workflow
from repro.api import AnnealConfig, ScheduleRequest, solve_batch

#: divisor for task counts; CI's examples smoke job sets this to 10
SCALE = int(os.environ.get("REPRO_EXAMPLE_SCALE", "1"))


def main() -> None:
    wf = generate_workflow("genome", n_tasks=max(16, 200 // SCALE), seed=11)
    cluster = default_cluster()
    print(f"workflow: {wf.name}  tasks={wf.n_tasks}  "
          f"cluster: {cluster.name}  k={cluster.k}")

    # One request per algorithm; anneal is deterministic per seed.
    anneal_config = AnnealConfig(seed=3, iterations=max(50, 400 // SCALE),
                                 restarts=2)
    requests = [
        ScheduleRequest(workflow=wf, cluster=cluster, algorithm="daghetpart",
                        scale_memory=True, validate=True),
        ScheduleRequest(workflow=wf, cluster=cluster, algorithm="anneal",
                        config=anneal_config, scale_memory=True,
                        validate=True),
    ]
    results = solve_batch(requests)

    print()
    for result in results:
        assert result.success, result.failure
        print(f"{result.algorithm:10s}: makespan={result.makespan:10.1f}  "
              f"blocks={result.n_blocks}  runtime={result.runtime:.2f}s")

    anneal = results[-1]
    seed_makespan = anneal.extra["anneal_seed_makespan"]
    print(f"\nanneal refinement: {seed_makespan:.1f} -> {anneal.makespan:.1f} "
          f"({anneal.extra['anneal_trials']} trials, "
          f"{anneal.extra['anneal_accepted']} accepted)")
    assert anneal.makespan <= seed_makespan  # the refiner's contract


if __name__ == "__main__":
    main()
