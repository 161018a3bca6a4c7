"""Machine-speed calibration, so that a run's times can be put on one scale.

The small VMs this benchmark runs on change speed by up to 2x within
minutes (the host's cores are shared): the same ``solve()`` took 0.57 s
in one 10 s window and 1.12 s in another. The time a fixed pure-Python
loop takes *in the same process, between requests* tracks that drift
closely: over the same five minutes, solve time ÷ loop time stayed
within about ±5 %. (A loop timed in a separate process does not: it
mostly measures whether the two vCPUs are hyperthreads of one core that
the workload keeps busy, which changed its reading 1.9x with no change
in solve time.) So the process that solves takes a :func:`sample`
between requests (see :func:`install_sampling` for the server and the
queue worker), and ``run.py`` reports every time metric rescaled to
:data:`REFERENCE_LOOP_S`, i.e. in seconds on a box of reference speed,
with the raw wall-clock values beside it.
"""

from __future__ import annotations

import time
from typing import Sequence, Tuple

#: the loop's time on an unloaded 2-core x86 VM at full speed
REFERENCE_LOOP_S = 0.0025
#: samples a short request's factor is taken from when none fell inside it
NEAREST = 3
#: where a server or queue worker appends its samples
FILE_ENV = "PERFBENCH_SPEED_FILE"
#: which of the two samples: "server" or "worker" (see install_sampling)
ROLE_ENV = "PERFBENCH_SPEED_ROLE"
#: half of service-16's 0.2 s spacing between due jobs
SERVICE_SAMPLE_DELAY_S = 0.1
#: a queue worker samples after every this many landed results
WORKER_SAMPLE_EVERY = 8


def loop_seconds() -> float:
    """Time one fixed pure-Python loop (integer and dict work)."""
    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(25_000):
        acc += i * i
        table[i & 1023] = acc
    return time.perf_counter() - t0


def sample() -> Tuple[float, float, float]:
    """(start, end, loop seconds): the sample's CLOCK_MONOTONIC start and
    end, and the fastest of three loops, so that a preemption inside one
    loop does not count as slowness."""
    t0 = time.monotonic()
    loop = min(loop_seconds() for _ in range(3))
    return t0, time.monotonic(), loop


def factor(samples: Sequence[Sequence[float]], start: float,
           end: float) -> float:
    """Median loop time over ``[start, end]`` ÷ the reference (>1: slower).

    Uses the :data:`NEAREST` samples closest to the window when fewer
    than that start inside it.
    """
    inside = [s for t0, _, s in samples if start <= t0 <= end]
    if len(inside) < NEAREST:
        mid = 0.5 * (start + end)
        inside = [s for _, _, s in sorted(samples,
                                          key=lambda ts: abs(ts[0] - mid))
                  [:NEAREST]]
    if not inside:
        raise RuntimeError("no machine-speed samples")
    inside.sort()
    n = len(inside)
    med = inside[n // 2] if n % 2 else 0.5 * (inside[n // 2 - 1]
                                              + inside[n // 2])
    return med / REFERENCE_LOOP_S


def overlap(samples: Sequence[Sequence[float]], start: float,
            end: float) -> float:
    """Seconds of ``[start, end]`` the solving process spent sampling:
    the benchmark's own work, taken out of any span it falls into."""
    return sum(max(0.0, min(t1, end) - max(t0, start))
               for t0, t1, _ in samples)


def append(path: str) -> None:
    """Take one sample and append it to ``path`` as a text line."""
    t0, t1, loop = sample()
    with open(path, "a") as fh:
        fh.write(f"{t0:.6f} {t1:.6f} {loop:.7f}\n")


def read(path: str):
    """Every sample :func:`append` wrote to ``path`` (none if absent)."""
    try:
        with open(path) as fh:
            return [tuple(float(x) for x in line.split())
                    for line in fh if len(line.split()) == 3]
    except FileNotFoundError:
        return []


def install_sampling(path: str, role: str) -> None:
    """Sample this process's speed where no measured request waits on it.

    ``hook/sitecustomize.py`` calls this in the server (``role`` "server")
    or queue workers ("worker") a run starts, so that their own core's
    speed rescales their times:

    * the server samples from a thread of its own,
      :data:`SERVICE_SAMPLE_DELAY_S` after a job started -- half way to
      the next job service-16's fixed schedule sends -- and only when no
      job is in flight then;
    * a queue worker is never idle while the batch runs (the façade
      keeps requests spooled ahead of it), so it samples after every
      :data:`WORKER_SAMPLE_EVERY`-th result has landed, and the samples' time is taken out
      of the latencies and the wall time it overlaps (:func:`overlap`).
    """
    import importlib
    import threading

    if role == "server":
        dispatcher = importlib.import_module(
            "repro.service.dispatcher").Dispatcher
        run_job = dispatcher._run_job
        jobs = threading.Condition()
        state = {"in_flight": 0, "started": 0}

        def sampled_run_job(self, job_id):
            with jobs:
                state["in_flight"] += 1
                state["started"] += 1
                jobs.notify()
            try:
                return run_job(self, job_id)
            finally:
                with jobs:
                    state["in_flight"] -= 1

        def sampler():
            seen = 0
            while True:
                with jobs:
                    jobs.wait_for(lambda: state["started"] != seen)
                    seen = state["started"]
                time.sleep(SERVICE_SAMPLE_DELAY_S)
                with jobs:
                    idle = state["in_flight"] == 0 \
                        and state["started"] == seen
                if idle:
                    append(path)

        dispatcher._run_job = sampled_run_job
        threading.Thread(target=sampler, daemon=True,
                         name="perfbench-speed").start()
    elif role == "worker":
        spool = importlib.import_module("repro.api.exec.queue").Spool
        finish = spool.finish
        landed = [0]

        def sampled_finish(self, worker_id, job_id):
            finish(self, worker_id, job_id)
            landed[0] += 1
            if landed[0] % WORKER_SAMPLE_EVERY == 1:
                append(path)

        spool.finish = sampled_finish
    else:
        raise ValueError(f"unknown sampling role {role!r}")
