"""Execution backends & policies: one batch, three engines, one answer.

Builds a small request grid and runs it through ``solve_batch`` on the
``serial``, ``process`` and ``queue`` backends, asserting
the results are bit-for-bit identical (modulo measured runtime) — then
demonstrates the per-request ``ExecutionPolicy``: a deliberately slow
algorithm is cut off by ``timeout_s`` and reported as a structured
``FailureInfo(kind="timeout")`` instead of hanging the sweep. Finally the
batch is re-run against a ``sqlite://`` result cache to show the second
pass doing zero solves — on the ``queue`` backend too, where the parent
serves every hit itself and spools nothing to its ``repro worker``
subprocesses.

Run:  python examples/execution_backends.py
(set REPRO_EXAMPLE_SCALE=10 for a tiny smoke-test corpus, as CI does)
"""

import os
import tempfile
import time

from repro.core.heuristic import DagHetPartConfig
from repro.api import (
    ExecutionPolicy,
    ScheduleRequest,
    open_cache,
    register_algorithm,
    route,
    solve_batch,
    unregister_algorithm,
)
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster

#: divisor for task counts; CI's examples smoke job sets this to 10
SCALE = int(os.environ.get("REPRO_EXAMPLE_SCALE", "1"))


def build_requests():
    cluster = default_cluster()
    config = DagHetPartConfig(k_prime_strategy="doubling")
    return [
        ScheduleRequest(workflow=generate_workflow(family, max(16, 120 // SCALE),
                                                   seed=11),
                        cluster=cluster, algorithm=algorithm,
                        config=config if algorithm == "daghetpart" else None,
                        scale_memory=True, want_mapping=False,
                        tags={"family": family})
        for family in ("blast", "bwa", "soykb")
        for algorithm in ("daghetmem", "daghetpart")
    ]


def strip(result):
    """Everything deterministic: the envelope minus the measured runtime."""
    return {k: v for k, v in result.to_dict().items() if k != "runtime"}


def main() -> None:
    requests = build_requests()

    # 1. The router: explicit override > $REPRO_BACKEND > worker count.
    print(f"routing: workers=1 -> {route(workers=1)}, "
          f"workers=4 -> {route(workers=4)}")

    # 2. Same batch on every backend; identical results by contract.
    #    ("queue" spools requests to a temp directory and spawns two
    #    `repro worker` subprocesses that claim and solve them — the
    #    same engine would serve workers attached from other machines.)
    reference = None
    for backend in ("serial", "process", "queue"):
        start = time.perf_counter()
        results = solve_batch(requests, backend=backend, parallel=2)
        elapsed = time.perf_counter() - start
        stripped = [strip(r) for r in results]
        if reference is None:
            reference = stripped
        assert stripped == reference, f"{backend} diverged!"
        best = min(r.makespan for r in results)
        print(f"{backend:8s}: {len(results)} results in {elapsed:5.2f}s "
              f"(best makespan {best:.1f})")
    print("all backends agree bit-for-bit (modulo runtime)")

    # 3. ExecutionPolicy: a slow algorithm is cut off, not waited for.
    @register_algorithm("gridlock", summary="sleeps forever (demo)")
    def gridlock(workflow, cluster, config=None):
        time.sleep(60.0)
        raise AssertionError("unreachable")

    try:
        slow = ScheduleRequest(
            workflow=requests[0].workflow, cluster=default_cluster(),
            algorithm="gridlock", want_mapping=False,
            policy=ExecutionPolicy(timeout_s=0.5))
        start = time.perf_counter()
        [timed_out] = solve_batch([slow])
        print(f"\npolicy: gridlock cut off after "
              f"{time.perf_counter() - start:.1f}s -> "
              f"FailureInfo(kind={timed_out.failure.kind!r})")
        assert timed_out.failure.kind == "timeout"
    finally:
        unregister_algorithm("gridlock")

    # 4. The result cache by sqlite URI: second run = zero solves.
    with tempfile.TemporaryDirectory() as tmp:
        uri = f"sqlite://{tmp}/results.db"
        with open_cache(uri) as cache:
            solve_batch(requests, cache=cache)
            first = dict(cache.stats())
            solve_batch(requests, cache=cache)
            second = dict(cache.stats())
        print(f"\ncache {uri.split('/')[-1]}: first run misses={first['misses']}, "
              f"second run hits={second['hits'] - first['hits']} "
              f"(zero new solves)")
        assert second["misses"] == first["misses"]

    # 5. The queue backend behind the same cache: the parent looks every
    #    request up before spooling it and records every result its
    #    workers land, so a re-run — by this parent or any other sharing
    #    the cache file — spools nothing and costs zero solves.
    with tempfile.TemporaryDirectory() as tmp:
        uri = f"sqlite://{tmp}/shared.db"
        with open_cache(uri) as cache:
            solve_batch(requests, backend="queue", parallel=2, cache=cache)
            first = dict(cache.stats())
            solve_batch(requests, backend="queue", parallel=2, cache=cache)
            second = dict(cache.stats())
        print(f"queue + shared cache: first run misses={first['misses']}, "
              f"second run hits={second['hits'] - first['hits']} "
              f"(served without re-solving)")
        assert second["misses"] == first["misses"]


if __name__ == "__main__":
    main()
