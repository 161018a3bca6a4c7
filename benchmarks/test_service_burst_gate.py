"""A held burst of 1,024 jobs against the HTTP service, then the drain.

A real :class:`~repro.service.app.ServiceApp` listens on an ephemeral
port. Its dispatcher is held while every job is submitted over
:data:`CONNECTIONS` pooled keep-alive connections (thousands of sockets
would measure the file-descriptor limit, not the service), so when the
last acceptance lands the service provably holds every job at once.
Releasing the hold starts the drain.

Absolute throughput depends on the machine, so the throughput check is
a ratio: the drain rate over the rate of :data:`SAMPLE` of the same
requests solved by :func:`~repro.api.batch.iter_solve_batch` on the
serial backend (no HTTP, job store or dispatcher). Solves are CPU-bound
Python, so the service's worker threads share about one core, and the
one-core serial rate is the yardstick for that. The other checks are exact: no dropped submission, no
failed or crashed job, every job ``done``, and a peak concurrency of at
least ``min(1000, jobs)``. The gate is marked ``wallclock``: the default
run deselects it and CI's perf-gates job runs it.
"""

import asyncio
import json
import time

import pytest

from repro.api.batch import iter_solve_batch
from repro.api.envelopes import ScheduleRequest
from repro.core.heuristic import DagHetPartConfig
from repro.generators.families import generate_workflow
from repro.platform.presets import cluster_by_name
from repro.service.app import ServiceApp

JOBS = 1024
#: ``repro serve --workers``'s default, which the gate was recorded with
WORKERS = 2
CONNECTIONS = 64
SAMPLE = 192

#: the service/offline efficiency recorded with the load test (PR 8)
RECORDED_EFFICIENCY = 0.9184

#: the gate's floor: 0.5 x the recorded efficiency (0.4592)
EFFICIENCY_FLOOR = 0.5 * RECORDED_EFFICIENCY


def burst_bodies(n_jobs):
    """JSON bodies of distinct 16-task requests (no two share a cache
    fingerprint)."""
    families = ("blast", "bwa", "genome", "soykb")
    config = DagHetPartConfig(k_prime_strategy="doubling")
    return [ScheduleRequest(
        workflow=generate_workflow(families[i % 4], 16, seed=i),
        cluster=cluster_by_name("default"), algorithm="daghetpart",
        config=config, scale_memory=True, want_mapping=False,
        tags={"loadtest": i}).to_json().encode() for i in range(n_jobs)]


async def _submit(port, jobs, accepted, errors, submit_s):
    """Submit ``(index, body)`` jobs in order over one connection."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for index, body in jobs:
            t0 = time.perf_counter()
            writer.write(b"POST /v1/schedule HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
            await writer.drain()
            lines = (await reader.readuntil(b"\r\n\r\n")).split(b"\r\n")
            length = next(int(line.split(b":", 1)[1]) for line in lines
                          if line.lower().startswith(b"content-length:"))
            payload = await reader.readexactly(length)
            submit_s.append(time.perf_counter() - t0)
            if lines[0].split(b" ")[1] == b"202":
                accepted.append(json.loads(payload)["id"])
            else:
                errors.append(f"job {index}: {lines[0]!r} {payload[:200]!r}")
    finally:
        writer.close()


async def _held_burst(bodies, workers, store_dir):
    app = ServiceApp(str(store_dir), cache=None, backend=None,
                     workers=workers, parallel=0)
    await app.start(host="127.0.0.1", port=0)
    app.dispatcher.hold()
    try:
        pool = min(CONNECTIONS, len(bodies))
        jobs = list(enumerate(bodies))
        accepted, errors, submit_s = [], [], []
        await asyncio.gather(*(
            _submit(app.port, jobs[k::pool], accepted, errors, submit_s)
            for k in range(pool)))
        drain_t0 = time.perf_counter()
        app.dispatcher.release()
        while app.dispatcher.stats()["active"]:
            await asyncio.sleep(0.05)
        return {"accepted": len(accepted), "errors": errors,
                "peak_active": app.dispatcher.stats()["peak_active"],
                "jobs": app.store.counts(),
                "drain_s": time.perf_counter() - drain_t0,
                "submit_s": sorted(submit_s)}
    finally:
        await app.shutdown()


def held_burst(bodies, workers, store_dir):
    """Submit every body while the dispatcher is held, then drain."""
    return asyncio.run(_held_burst(bodies, workers, store_dir))


def assert_burst_completes(burst, n_jobs):
    """The machine-independent half of the gate."""
    assert burst["accepted"] == n_jobs, burst["errors"][:10]
    assert burst["jobs"].get("failed", 0) == 0
    assert burst["jobs"].get("crashed", 0) == 0
    assert burst["peak_active"] >= min(1000, n_jobs)
    assert burst["jobs"].get("done", 0) == n_jobs


@pytest.mark.wallclock
def test_service_drains_a_held_burst(tmp_path):
    bodies = burst_bodies(JOBS)
    burst = held_burst(bodies, WORKERS, tmp_path / "store")
    assert_burst_completes(burst, JOBS)
    sample = [ScheduleRequest.from_json(body.decode())
              for body in bodies[:SAMPLE]]
    t0 = time.perf_counter()
    offline = list(iter_solve_batch(sample, parallel=WORKERS,
                                    backend="serial"))
    offline_rate = len(offline) / (time.perf_counter() - t0)
    efficiency = JOBS / burst["drain_s"] / offline_rate
    submit = burst["submit_s"]
    print(f"\nsubmit p50 {submit[JOBS // 2] * 1e3:.1f} ms, p99 "
          f"{submit[int(0.99 * (JOBS - 1))] * 1e3:.1f} ms; drain "
          f"{burst['drain_s']:.2f} s; offline {offline_rate:.1f} req/s; "
          f"efficiency {efficiency:.3f} (floor {EFFICIENCY_FLOOR:.4f})")
    assert efficiency >= EFFICIENCY_FLOOR
