"""One benchmark process: set up a workload, measure it, check its outputs.

``run.py`` starts this file in fresh processes::

    python3 perfbench/child.py setup   --workload W --seed N --seconds S --out DIR
    python3 perfbench/child.py measure --workload W --seed N --seconds S --out DIR [--trace]

Both roles print ``READY`` once imports, input generation and warm-up
are done (``run.py`` times process start to that line: one ``setup_s``
sample), then ``SPEED <loop seconds>`` (see ``speed.py``). ``setup``
then exits; ``measure`` runs the measured phase and
writes ``DIR/result.json`` with the raw measurements, the per-request
checks and, with ``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import speed  # noqa: E402


def _ready() -> None:
    """Announce the end of set-up, then this core's speed right after."""
    sys.stdout.write("READY\n")
    sys.stdout.flush()
    sys.stdout.write(f"SPEED {speed.sample()[2]:.7f}\n")
    sys.stdout.flush()


def _warm_up() -> None:
    """One small solve, so imports, lazy imports and kernel selection are
    paid in set-up."""
    from repro.api import batch

    batch.solve(common.build_request(("genome", 16, 10_000)))


# ----------------------------------------------------------------------
# closed-loop solver workloads (paper-200, fanout-1k) and sweep-queue
# ----------------------------------------------------------------------
def _list_setup(args):
    instances = common.run_list(args.workload, args.seed, args.seconds)
    want_mapping = args.workload != "sweep-queue"
    requests = [common.build_request(inst, want_mapping=want_mapping)
                for inst in instances]
    _warm_up()
    return instances, requests


def _solver_measure(args, instances, requests, tracing):
    """``solve()`` back to back over the list, one client, closed loop;
    a speed sample (untimed) precedes each request."""
    from repro.api import batch

    spans = []  # (start, end) of each request on CLOCK_MONOTONIC
    samples = []
    results = []
    if tracing:
        tracing.start()
    t_start = time.monotonic()
    for inst, request in zip(instances, requests):
        samples.append(speed.sample())
        if tracing:
            tracing.set_request(common.instance_key(*inst))
        t0 = time.monotonic()
        results.append(batch.solve(request))
        spans.append((t0, time.monotonic()))
    samples.append(speed.sample())
    window = [t_start, time.monotonic()]
    wall = sum(end - start for start, end in spans)
    if tracing:
        tracing.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = _checked(instances, requests, results, wall, spans, rss_mb,
                   window)
    raw["speed"] = samples
    return raw


def _sweep_measure(args, instances, requests, tracing):
    """What ``solve_batch(requests, parallel=1, backend="queue",
    cache=<fresh sqlite>)`` runs, with each request timed from its
    hand-off to the batch façade until its result lands."""
    from repro.api import iter_solve_batch, open_cache

    cache = open_cache("sqlite://" + os.path.join(args.out, "cache.db"))
    handed = []
    landed = []

    def feed():
        # the façade pulls a request right before it looks it up in the
        # cache and submits it to the backend
        for request in requests:
            handed.append(time.monotonic())
            yield request

    def progress(index, request, result):
        landed.append(time.monotonic())

    if tracing:
        tracing.start()
    window = [time.monotonic()]
    results = list(iter_solve_batch(feed(), parallel=1, progress=progress,
                                    cache=cache, backend="queue"))
    window.append(time.monotonic())
    samples = speed.read(os.environ[speed.FILE_ENV])
    wall = window[1] - window[0] - speed.overlap(samples, *window)
    if tracing:
        tracing.stop()
    cache.close()
    # the queue worker is the process that solves; it has been reaped
    rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    raw = _checked(instances, requests, results, wall,
                   list(zip(handed, landed)), rss_mb, window)
    raw["queue_overhead_s"] = \
        (wall - sum(r.runtime for r in results)) / len(results)
    raw["speed"] = samples
    return raw


def _checked(instances, requests, results, wall, spans, rss_mb,
             window):
    """Check every result (outside the timed region); the raw record."""
    ref = common.load_reference()
    errors = []
    ratios = []
    for inst, request, result in zip(instances, requests, results):
        key = common.instance_key(*inst)
        problem = common.check_result(ref, inst, result,
                                      common.lower_bound(request))
        if problem is None and result.mapping is not None:
            try:
                result.mapping.validate()
            except Exception as exc:  # noqa: BLE001 — any violation fails
                problem = f"{key}: invalid mapping " \
                          f"({type(exc).__name__}: {exc})"
        if problem is not None:
            errors.append(problem)
        elif result.failure is None:
            ratios.append(result.makespan / ref[key]["bound"])
    if len(results) != len(requests):
        errors.append(f"{len(results)} results for {len(requests)} "
                      f"requests")
    points = [p for r in results for p in r.sweep]
    return {
        "attempted": len(requests), "failed": len(errors),
        "completed": len(results) - len(errors), "errors": errors,
        "wall_s": wall, "window": window, "spans": spans,
        "ratios": ratios, "peak_rss_mb": rss_mb, "requests": len(requests),
        "kprime_ok": sum(1 for p in points if p.status == "ok"),
        "kprime_all": len(points),
    }


# ----------------------------------------------------------------------
# per-layer metrics of a traced run
# ----------------------------------------------------------------------
def per_layer(raw, summary):
    """Per-layer metrics from the traced processes' span summary.

    Solver-layer counts and seconds are per ``solve()`` call, shares are
    of the summed ``solve()`` wall time; api/service seconds are per
    request. A layer a workload does not cross reads 0.
    """
    s = summary.get
    solves = s("solve.n", 0.0)
    solve_wall = s("solve.wall", 0.0)
    requests = s("service.job.n", 0.0) or raw["requests"]

    def per_solve(key):
        return s(key, 0.0) / solves if solves else 0.0

    def share(key):
        return s(key, 0.0) / solve_wall if solve_wall else 0.0

    def per_request(key):
        return s(key, 0.0) / requests if requests else 0.0

    evals = s("core.evaluator.eval.n", 0.0)
    applies = s("core.evaluator.apply.n", 0.0)
    lookups = s("memdag.lookups", 0.0)
    hits, misses = s("api.cache.hits", 0.0), s("api.cache.misses", 0.0)
    evaluator_self = sum(s(f"core.evaluator.{k}.self", 0.0)
                         for k in ("init", "eval", "apply", "makespan"))
    service = raw.get("service", {})
    return {
        "partition.calls": (per_solve("partition.n"), "count"),
        "partition.self_s": (per_solve("partition.self"), "s"),
        "partition.share": (share("partition.self"), "ratio"),
        "memdag.calls": (per_solve("memdag.n"), "count"),
        "memdag.self_s": (per_solve("memdag.self"), "s"),
        "memdag.share": (share("memdag.self"), "ratio"),
        "memdag.req_hit_ratio": (
            1.0 - s("memdag.n", 0.0) / lookups if lookups else 0.0, "ratio"),
        "core.assignment.self_s": (per_solve("core.assignment.self"), "s"),
        "core.merging.calls": (per_solve("core.merging.n"), "count"),
        "core.merging.self_s": (per_solve("core.merging.self"), "s"),
        "core.merging.share": (share("core.merging.self"), "ratio"),
        "core.swaps.self_s": (per_solve("core.swaps.self"), "s"),
        "core.swaps.share": (share("core.swaps.self"), "ratio"),
        "core.swaps.idle_self_s": (per_solve("core.swaps.idle.self"), "s"),
        "core.evaluator.evals": (per_solve("core.evaluator.eval.n"), "count"),
        "core.evaluator.applies": (
            per_solve("core.evaluator.apply.n"), "count"),
        "core.evaluator.accept_ratio": (
            applies / evals if evals else 0.0, "ratio"),
        "core.evaluator.self_s": (
            evaluator_self / solves if solves else 0.0, "s"),
        "core.makespan.full_passes": (per_solve("full_passes"), "count"),
        "core.heuristic.kprime_feasible_ratio": (
            raw["kprime_ok"] / raw["kprime_all"]
            if raw["kprime_all"] else 0.0, "ratio"),
        "core.mapping.self_s": (per_solve("core.mapping.self"), "s"),
        "platform.scale_s": (per_solve("platform.scale.self"), "s"),
        "api.envelope.decode_s": (per_request("api.envelope.decode.self"),
                                  "s"),
        "api.envelope.encode_s": (per_request("api.envelope.encode.self"),
                                  "s"),
        "api.fingerprint.calls": (per_request("api.fingerprint.n"), "count"),
        "api.fingerprint.self_s": (per_request("api.fingerprint.self"), "s"),
        "api.cache.get_s": (per_request("api.cache.get.self"), "s"),
        "api.cache.put_s": (per_request("api.cache.put.self"), "s"),
        "api.cache.hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "exec.queue.overhead_s": (raw.get("queue_overhead_s", 0.0), "s"),
        "service.accept_s": (service.get("accept_s", 0.0), "s"),
        "service.queue_wait_s": (service.get("queue_wait_s", 0.0), "s"),
        "service.run_s": (service.get("run_s", 0.0), "s"),
        "service.overhead_s": (service.get("overhead_s", 0.0), "s"),
        "service.store.write_s": (per_request("service.store.write.self"),
                                  "s"),
        "loadgen.late_max_s": (service.get("late_max_s", 0.0), "s"),
    }


def exact_counts(raw, summary):
    """Run totals that must repeat exactly for a seed (determinism.py)."""
    s = summary.get
    return {
        "memdag.calls": int(s("memdag.n", 0)),
        "core.makespan.full_passes": int(s("full_passes", 0)),
        "core.evaluator.evals": int(s("core.evaluator.eval.n", 0)),
        "core.evaluator.applies": int(s("core.evaluator.apply.n", 0)),
        "core.heuristic.kprime": [raw["kprime_ok"], raw["kprime_all"]],
        "api.cache.hits": int(s("api.cache.hits", 0)),
        "api.cache.misses": int(s("api.cache.misses", 0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    common.ensure_src_on_path()

    # subprocesses this run starts (the server, queue workers) load
    # hook/sitecustomize.py: they sample their own speed into FILE_ENV
    # and, traced, write their spans next to this process's
    os.environ[speed.FILE_ENV] = os.path.join(args.out, "speed.txt")
    os.environ[speed.ROLE_ENV] = "server" if args.workload == "service-16" \
        else "worker"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(common.HERE, "hook")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    tracing = None
    if args.trace:
        import tracing
        tracing.install()
        trace_dir = os.path.join(args.out, "spans")
        os.makedirs(trace_dir, exist_ok=True)
        os.environ[tracing.TRACE_DIR_ENV] = trace_dir

    if args.workload == "service-16":
        import loadgen
        raw = loadgen.run(args, ready=_ready)
    else:
        instances, requests = _list_setup(args)
        _ready()
        if args.role == "setup":
            return 0
        measure = _sweep_measure if args.workload == "sweep-queue" \
            else _solver_measure
        raw = measure(args, instances, requests, tracing)
    if tracing:
        tracing.write(trace_dir)
        summary = tracing.summarize(trace_dir)
        raw["per_layer"] = {k: [v, unit] for k, (v, unit)
                            in per_layer(raw, summary).items()}
        raw["counts"] = exact_counts(raw, summary)
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(raw, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
