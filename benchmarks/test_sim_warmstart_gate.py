"""Warm start against a cold re-solve, after the busiest processor fails.

One 10k-task blast DAG is planned once with memory-scaled ``daghetpart``
on the default cluster, then replayed twice under the same mid-run
failure of the processor carrying the most tasks (a random victim
usually hits an idle machine and nothing needs repair): once with the
``warmstart`` policy (incremental repair priced by evaluator deltas)
and once with ``resolve`` (a cold re-solve of the remainder). The gate
checks that warm start spends zero full bottom-weight passes, realizes a
makespan no worse than ``resolve``'s, and reacts at least
:data:`SPEEDUP_FLOOR` times faster. Reaction latencies are the minimum
of :data:`REPEATS` replays; everything else is deterministic per seed.

The speedup is a wall-clock ratio, so the gate is marked ``wallclock``:
the default run deselects it and CI's perf-gates job runs it.
"""

import pytest

from repro.api.batch import solve
from repro.api.envelopes import ScheduleRequest
from repro.generators.families import generate_workflow
from repro.platform.presets import cluster_by_name
from repro.sim.engine import SimEngine
from repro.sim.events import DynamicsSpec, ProcessorChurn

#: min-of-k replays behind each reaction latency
REPEATS = 3

#: the warm-start/re-solve speedup recorded with the simulator (PR 7)
RECORDED_SPEEDUP = 157.84762092572856

#: the gate's floor: 0.4 x the recorded speedup (63.14x)
SPEEDUP_FLOOR = 0.4 * RECORDED_SPEEDUP


def warmstart_replays(n):
    """Plan blast-``n``, fail its busiest processor at a quarter of the
    plan, and replay under both policies; returns ``{policy: entry}``
    with each entry's fastest reaction."""
    plan = solve(ScheduleRequest(
        workflow=generate_workflow("blast", n, seed=0),
        cluster=cluster_by_name("default"), algorithm="daghetpart",
        scale_memory=True, want_mapping=True))
    assert plan.failure is None and plan.mapping is not None, plan.failure
    victim = max(plan.mapping.assignments,
                 key=lambda a: len(a.tasks)).processor.name
    churn = ProcessorChurn(fail_times=(0.25,), victims=(victim,))
    replays = {}
    for policy in ("warmstart", "resolve"):
        dynamics = DynamicsSpec(models=(churn,), seed=1, policy=policy)
        runs = [SimEngine(plan.mapping, dynamics, algorithm="daghetpart").run()
                for _ in range(REPEATS)]
        best = min(runs, key=lambda sim: sim.metrics["sim_react_total_s"])
        replays[policy] = {
            "react_s": best.metrics["sim_react_total_s"],
            "realized": best.realized,
            "full_passes": best.metrics["sim_full_passes"],
        }
    return replays


def assert_warm_start_repairs(replays):
    """The machine-independent half of the gate."""
    warm, cold = replays["warmstart"], replays["resolve"]
    assert warm["full_passes"] == 0
    assert warm["realized"] <= cold["realized"] * (1 + 1e-9)


@pytest.mark.wallclock
def test_warm_start_beats_cold_resolve():
    replays = warmstart_replays(10_000)
    warm, cold = replays["warmstart"], replays["resolve"]
    speedup = (cold["react_s"] / warm["react_s"] if warm["react_s"] > 0
               else float("inf"))
    print(f"\nwarmstart {warm['react_s'] * 1e3:.2f} ms, resolve "
          f"{cold['react_s'] * 1e3:.2f} ms: {speedup:.1f}x "
          f"(floor {SPEEDUP_FLOOR:.2f}x)")
    assert_warm_start_repairs(replays)
    assert speedup > 1.0
    assert speedup >= SPEEDUP_FLOOR
