"""The repository's benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload paper-200 --seed 3 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each exists and what
each per-layer metric is expected to move):

* ``paper-200``   -- ``solve()`` in a closed loop, 7 families x 200 tasks;
* ``fanout-1k``   -- the same loop on 5 fan-out families at 1000 tasks;
* ``service-16``  -- open-loop 16-task jobs against ``repro serve``;
* ``sweep-queue`` -- a 32-task batch through the ``queue`` backend.

``--seed`` picks the workload's inputs from its recorded pool (the same
seed always gives the same inputs); ``--seconds`` sizes the measured
phase. With ``--trace 0`` the end-to-end metrics are printed (set-up is
timed over several fresh processes); with ``--trace 1`` the workload is
measured once untraced and once with span wrappers installed, and the
per-layer metrics plus the tracing overhead are printed. Every run
checks every output against the recorded references; the last stdout
line is a JSON object ``{"correct", "attempted", "failed", "metrics"}``
and the exit code is non-zero when any check failed. Times are reported
in reference-speed seconds (see ``speed.py``), with the raw wall-clock
values printed beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import speed  # noqa: E402

#: fresh processes timed from start to READY (plus the measuring one)
SETUP_PROBES = 4
#: hard limit for one child process
CHILD_TIMEOUT_S = 150.0


class ChildFailed(RuntimeError):
    pass


def _child(role: str, args, rundir: str, trace: bool = False):
    """Run child.py; returns ((seconds from spawn to READY, loop seconds
    sampled right after), result or None)."""
    os.makedirs(rundir, exist_ok=True)
    tmp = os.path.join(rundir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [sys.executable, os.path.join(common.HERE, "child.py"), role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", rundir]
    if trace:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=common.ROOT,
                            env=common.child_env({"TMPDIR": tmp}))
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        loop = proc.stdout.readline().split()[-1:]
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{role} process exceeded {CHILD_TIMEOUT_S:g} s")
    if proc.returncode != 0 or line.strip() != b"READY":
        raise ChildFailed(f"{role} process exited with {proc.returncode}")
    setup = (ready, float(loop[0]))
    if role == "setup":
        return setup, None
    with open(os.path.join(rundir, "result.json")) as fh:
        return setup, json.load(fh)


def end_to_end(workload, raw, setup):
    """The declared metrics, times rescaled to the reference speed.

    Each request's latency, less any sampling inside it, is rescaled by
    the speed sampled around it, and each set-up sample by the speed
    sampled right after it. The closed loops' throughput is requests ÷
    their summed rescaled latencies; sweep-queue's (requests overlap
    there) is rescaled by the median speed of the measured phase;
    service-16's is its offered rate.
    """
    if not raw["spans"] or not raw["ratios"]:
        # nothing completed correctly: the failures decide the run
        return {}, {}
    samples = raw["speed"]
    raw_lat = [end - start - speed.overlap(samples, start, end)
               for start, end in raw["spans"]]
    lat = [seconds / speed.factor(samples, start, end)
           for seconds, (start, end) in zip(raw_lat, raw["spans"])]
    tail_value, tail_pct, beyond = common.tail(lat)
    raw_rps = raw["completed"] / raw["wall_s"]
    if workload == "sweep-queue":
        rps = raw_rps * speed.factor(samples, *raw["window"])
    elif workload == "service-16":
        rps = raw_rps
    else:
        rps = raw["completed"] / sum(lat)
    setup_s = [seconds * speed.REFERENCE_LOOP_S / loop
               for seconds, loop in setup]
    metrics = {
        "throughput_rps": (rps, "1/s"),
        "latency_p50_s": (common.median(lat), "s"),
        "latency_tail_s": (tail_value, "s"),
        "makespan_vs_bound": (common.geomean(raw["ratios"]), "ratio"),
        "setup_s": (common.median(setup_s), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
    }
    notes = {
        "throughput_rps": f"raw {raw_rps:.4g}",
        "latency_p50_s": f"raw {common.median(raw_lat):.4g}, n={len(lat)}",
        "latency_tail_s": f"raw {common.tail(raw_lat)[0]:.4g}, "
                          f"p{tail_pct:.1f}, {beyond} samples beyond, "
                          f"n={len(lat)}",
        "makespan_vs_bound": f"geomean over {len(raw['ratios'])} "
                             f"successful requests",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup_s)
                   + "; raw " + ", ".join(f"{s:.3f}" for s, _ in setup),
    }
    return metrics, notes


def overhead(workload, plain, plain_probe, traced, traced_probe):
    """Tracing overhead: traced against untraced throughput and p50, both
    as the end-to-end metrics report them. service-16's throughput is
    its offered rate, which tracing cannot change, so there the overhead
    is the p50 latency's; elsewhere it is the throughput's."""
    base, _ = end_to_end(workload, plain, [plain_probe])
    with_spans, _ = end_to_end(workload, traced, [traced_probe])
    if not base or not with_spans:
        return {}
    rps = base["throughput_rps"][0], with_spans["throughput_rps"][0]
    p50 = base["latency_p50_s"][0], with_spans["latency_p50_s"][0]
    if workload == "service-16":
        ratio = p50[1] / p50[0] - 1.0
    else:
        ratio = 1.0 - rps[1] / rps[0]
    return {
        "trace.untraced_rps": (rps[0], "1/s"),
        "trace.traced_rps": (rps[1], "1/s"),
        "trace.untraced_p50_s": (p50[0], "s"),
        "trace.traced_p50_s": (p50[1], "s"),
        "trace.overhead": (ratio, "ratio"),
    }


def rescaled(metrics, factor):
    """Per-layer metrics with seconds rescaled to the reference speed."""
    out = {}
    for name, (value, unit) in metrics.items():
        out[name] = (value / factor if unit == "s" else value, unit)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--keep", action="store_true",
                        help="keep the run directory (spans, logs)")
    args = parser.parse_args(argv)
    common.ensure_src_on_path()

    rundir = os.path.join(common.RUNS_DIR,
                          f"{args.workload}-{args.seed}-{os.getpid()}-"
                          f"{time.time_ns()}")
    try:
        if args.trace:
            plain_probe, plain = _child("measure", args,
                                        os.path.join(rundir, "plain"))
            traced_probe, raw = _child("measure", args,
                                       os.path.join(rundir, "traced"),
                                       trace=True)
            results = (plain, raw)
            plain_speed = speed.factor(plain["speed"], *plain["window"])
            traced_speed = speed.factor(raw["speed"], *raw["window"])
            metrics = rescaled({k: tuple(v)
                                for k, v in raw["per_layer"].items()},
                               traced_speed)
            metrics.update(overhead(args.workload, plain, plain_probe,
                                    raw, traced_probe))
            notes = {}
            factors = f"speed factor {plain_speed:.3f} untraced, " \
                      f"{traced_speed:.3f} traced"
        else:
            setup = []
            if args.workload != "service-16":
                for i in range(SETUP_PROBES):
                    probe, _ = _child("setup", args,
                                      os.path.join(rundir, f"setup-{i}"))
                    setup.append(probe)
            probe, raw = _child("measure", args, os.path.join(rundir, "m"))
            setup = raw.get("setup") or setup + [probe]
            results = (raw,)
            metrics, notes = end_to_end(args.workload, raw, setup)
            factors = f"speed factor " \
                      f"{speed.factor(raw['speed'], *raw['window']):.3f}"
    except (ChildFailed, RuntimeError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        if not args.keep:
            shutil.rmtree(rundir, ignore_errors=True)
            try:
                os.rmdir(common.RUNS_DIR)
            except OSError:
                pass

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    for error in errors[:20]:
        print(f"MISMATCH {error}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} requests, {failed} failed; {factors} "
          f"(times in reference-speed seconds)")
    if not args.trace:
        print(f"  failed_frac = {failed / attempted:.6g} ratio")
    for name in sorted(metrics):
        value, unit = metrics[name]
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name} = {value:.6g} {unit}{note}")
    correct = failed == 0 and not errors
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
