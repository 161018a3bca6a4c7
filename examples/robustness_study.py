"""Robustness study: three reaction policies under one perturbation storm.

Plans a genome-like workflow once, then replays that plan under an
identical dynamic scenario — two Poisson job arrivals, the *busiest*
processor failing mid-run, and a runtime-inflation shock — once per
registered reaction policy:

* ``static``    never re-plans (forced repairs only);
* ``resolve``   cold full re-solve at every event (pays solver latency);
* ``warmstart`` incremental repair priced by evaluator deltas (zero
  full bottom-weight passes — asserted below).

The comparison every robustness table in the paper family rests on:
how much of the disturbance each policy absorbs (makespan degradation),
at what re-planning price (full passes, migrations).

Run:  python examples/robustness_study.py
(set REPRO_EXAMPLE_SCALE=10 for a tiny smoke-test corpus, as CI does)
"""

import dataclasses
import os

from repro import generate_workflow
from repro.api import ScheduleRequest, solve, solve_batch
from repro.platform.presets import cluster_by_name
from repro.sim import (
    DynamicsSpec,
    PoissonArrivals,
    ProcessorChurn,
    RuntimeInflation,
    available_policies,
)

#: divisor for task counts; CI's examples smoke job sets this to 10
SCALE = int(os.environ.get("REPRO_EXAMPLE_SCALE", "1"))


def main() -> None:
    n_tasks = max(40, 200 // SCALE)
    wf = generate_workflow("genome", n_tasks=n_tasks, seed=11)
    request = ScheduleRequest(workflow=wf, cluster=cluster_by_name("default"),
                              algorithm="cpack", scale_memory=True,
                              want_mapping=True)
    print(f"workflow: {wf.name}  tasks={wf.n_tasks}  cluster: default")

    # plan once to aim the failure where it hurts: the processor holding
    # the most tasks (a random victim usually hits an idle machine)
    plan = solve(request)
    assert plan.failure is None, plan.failure
    victim = max(plan.mapping.assignments,
                 key=lambda a: len(a.tasks)).processor.name
    print(f"plan    : makespan={plan.makespan:.1f}  "
          f"blocks={plan.n_blocks}  victim={victim}")

    # one storm, replayed identically under every policy: times are
    # fractions of the undisturbed plan's makespan (relative_times)
    models = (
        PoissonArrivals(rate=3.0, count=2, family="genome",
                        n_tasks=max(10, n_tasks // 8), start=0.1),
        ProcessorChurn(fail_times=(0.4,), victims=(victim,)),
        RuntimeInflation(times=(0.55,), sigma=0.25, fraction=1.0),
    )

    print(f"\n{'policy':10s} {'plan':>10s} {'realized':>10s} "
          f"{'degr%':>7s} {'migr':>5s} {'replans':>7s} {'passes':>6s}")
    # one request per policy: the dynamics block makes solve() replay the
    # plan, so the policies run as one batch (REPRO_PARALLEL workers)
    policies = available_policies()
    replays = solve_batch(
        dataclasses.replace(request, want_mapping=False,
                            dynamics=DynamicsSpec(models=models, seed=23,
                                                  policy=policy))
        for policy in policies)
    reports = {}
    for policy, result in zip(policies, replays):
        assert result.failure is None, result.failure
        sim = result.extra
        reports[policy] = sim
        print(f"{policy:10s} {sim['sim_plan_makespan']:10.1f} "
              f"{sim['sim_realized_makespan']:10.1f} "
              f"{sim['sim_degradation_pct']:7.1f} "
              f"{sim['sim_task_migrations']:5d} "
              f"{sim['sim_replans']:7d} {sim['sim_full_passes']:6d}")

    warm = reports["warmstart"]
    static = reports["static"]
    # the warm-start contract: every repair priced through evaluator
    # deltas, never a full bottom-weight pass
    assert warm["sim_full_passes"] == 0
    # priced repairs may not lose to blind ones beyond float noise
    assert warm["sim_realized_makespan"] <= \
        static["sim_realized_makespan"] * (1 + 1e-9)
    print(f"\nwarm-start absorbed the storm at "
          f"{warm['sim_degradation_pct']:.1f}% degradation with "
          f"{warm['sim_full_passes']} full passes "
          f"({warm['sim_task_migrations']} task migrations)")


if __name__ == "__main__":
    main()
