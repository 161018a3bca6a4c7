"""service-16: an open-loop client against a ``repro serve`` subprocess.

The server runs with a fresh sqlite cache and job store under the run's
directory. Set-up is timed as server spawn until ``/healthz`` answers,
over several fresh spawns (all but the last are shut down again). After
a short warm-up, jobs are sent on a fixed schedule (the pool's ``rate``
per second, every ``REPEAT_EVERY``-th job a repeat of an earlier one) from
one asyncio thread over at most ``CONNECTIONS`` concurrent connections.
Each job POSTs ``/v1/schedule`` and then follows ``/v1/jobs/{id}/events``
on the same connection; its latency runs from when it was due until the
``end`` event arrives. Results, server timestamps and cache counters are
read back after the measured phase and checked against the references.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import re
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import common
import speed

HOST = "127.0.0.1"
CONNECTIONS = 2
SPAWNS = 5
WARMUP_JOBS = 8
JOB_TIMEOUT_S = 30.0


# ----------------------------------------------------------------------
# the server subprocess
# ----------------------------------------------------------------------
def _get_json(port: int, method: str, path: str, body: Optional[bytes] = None,
              conn: Optional[http.client.HTTPConnection] = None):
    own = conn is None
    conn = conn or http.client.HTTPConnection(HOST, port, timeout=30)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        if own:
            conn.close()


def spawn_server(rundir: str, index: int) -> Tuple[subprocess.Popen, int,
                                                   float]:
    """Start ``repro serve``; returns (process, port, spawn-to-healthz s)."""
    store = os.path.join(rundir, f"store-{index}")
    cache = "sqlite://" + os.path.join(rundir, f"cache-{index}.db")
    log = open(os.path.join(rundir, f"server-{index}.log"), "wb")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--host", HOST,
         "--port", "0", "--store", store, "--cache", cache,
         "--workers", "2"],
        stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL)
    log.close()
    port = None
    for raw in proc.stdout:
        match = re.search(r"listening on http://[^:]+:(\d+)",
                          raw.decode("utf-8", "replace"))
        if match:
            port = int(match.group(1))
            break
    if port is None:
        proc.wait()
        raise RuntimeError(f"server exited with {proc.returncode} before "
                           f"listening (see server-{index}.log)")
    while True:
        try:
            status, payload = _get_json(port, "GET", "/healthz")
            if status == 200 and payload.get("status") == "ok":
                break
        except OSError:
            pass
        time.sleep(0.005)
    return proc, port, time.perf_counter() - t0


def stop_server(proc: subprocess.Popen, port: int) -> None:
    """Graceful shutdown (traced servers write their spans on exit)."""
    try:
        _get_json(port, "POST", "/v1/shutdown", b"{}")
    except OSError:
        pass
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


# ----------------------------------------------------------------------
# the open-loop client
# ----------------------------------------------------------------------
async def _read_head(reader) -> Tuple[int, Dict[str, str]]:
    head = (await reader.readuntil(b"\r\n\r\n")).decode("latin-1")
    lines = head.split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, sep, value = line.partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    return status, headers


async def _job(port: int, body: bytes, due: float, sem, record: Dict):
    loop = asyncio.get_running_loop()
    delay = due - loop.time()
    if delay > 0:
        await asyncio.sleep(delay)
    async with sem:
        record["sent"] = loop.time()
        reader, writer = await asyncio.open_connection(HOST, port)
        try:
            writer.write(b"POST /v1/schedule HTTP/1.1\r\nHost: bench\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body) + body)
            await writer.drain()
            status, headers = await _read_head(reader)
            payload = json.loads(
                await reader.readexactly(int(headers["content-length"])))
            record["accepted"] = loop.time()
            record["accepted_wall"] = time.time()
            record["status"] = status
            if status != 202:
                return
            job_id = payload["id"]
            record["id"] = job_id
            writer.write(f"GET /v1/jobs/{job_id}/events HTTP/1.1\r\n"
                         f"Host: bench\r\n\r\n".encode("latin-1"))
            await writer.drain()
            status, _ = await _read_head(reader)
            if status != 200:
                return
            while True:
                size = int((await reader.readline()).strip(), 16)
                if size == 0:
                    return
                data = await reader.readexactly(size + 2)
                event = json.loads(data[:-2])
                if event.get("event") == "end":
                    record["end"] = loop.time()
                    record["state"] = event.get("state")
                    return
        finally:
            writer.close()


async def _drive(port: int, bodies: List[bytes], offsets: List[float]
                 ) -> Tuple[List[Dict], float]:
    loop = asyncio.get_running_loop()
    sem = asyncio.Semaphore(CONNECTIONS)
    records: List[Dict] = [{} for _ in bodies]
    t0 = loop.time() + 0.05
    for record, offset in zip(records, offsets):
        record["due"] = t0 + offset
    tasks = [asyncio.ensure_future(asyncio.wait_for(
        _job(port, body, record["due"], sem, record),
        timeout=record["due"] - loop.time() + JOB_TIMEOUT_S))
        for body, record in zip(bodies, records)]
    outcomes = await asyncio.gather(*tasks, return_exceptions=True)
    for record, outcome in zip(records, outcomes):
        if isinstance(outcome, BaseException):
            record["error"] = f"{type(outcome).__name__}: {outcome}"
    ends = [r["end"] for r in records if "end" in r]
    return records, (max(ends) if ends else loop.time()) - t0


def _body(inst) -> bytes:
    request = common.build_request(inst, want_mapping=False)
    return json.dumps(request.to_dict()).encode("utf-8")


# ----------------------------------------------------------------------
def run(args, ready) -> Dict:
    """The whole service-16 run; returns the raw measurement record."""
    schedule = common.service_schedule(args.seed, args.seconds)
    bodies = [_body(inst) for _, inst, _ in schedule]
    warm = [_body((common.FAMILIES[i % len(common.FAMILIES)], 16,
                   20_000 + i)) for i in range(WARMUP_JOBS)]
    ready()

    setup = []  # (spawn to healthz s, this core's loop s right after)
    proc = port = None
    for index in range(SPAWNS):
        if proc is not None:
            stop_server(proc, port)
        proc, port, seconds = spawn_server(args.out, index)
        setup.append((seconds, speed.sample()[2]))
    try:
        for body in warm:
            asyncio.run(_drive(port, [body], [0.0]))
        window = [time.monotonic()]
        records, wall = asyncio.run(
            _drive(port, bodies, [due for due, _, _ in schedule]))
        window.append(time.monotonic())
        rss_mb = peak_rss_mb(proc.pid)
        out = _check(port, schedule, records)
    finally:
        stop_server(proc, port)
    out.update(wall_s=wall, window=window, peak_rss_mb=rss_mb,
               setup=setup, speed=speed.read(os.environ[speed.FILE_ENV]))
    return out


def _check(port: int, schedule, records) -> Dict:
    """Read every job back and compare it with the recorded references."""
    ref = common.load_reference()
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    errors: List[str] = []
    spans, ratios = [], []
    accept, wait, run_s, overhead = [], [], [], []
    sweep_ok = sweep_all = 0
    failed = 0
    for (_, inst, repeat), rec in zip(schedule, records):
        key = common.instance_key(*inst)
        problem = rec.get("error")
        if problem is None and rec.get("status") != 202:
            problem = f"HTTP {rec.get('status')} on submit"
        if problem is None and "end" not in rec:
            problem = "event stream ended without an end event"
        if problem is None and rec.get("state") != "done":
            problem = f"job ended in state {rec.get('state')!r}"
        view = None
        if problem is None:
            status, view = _get_json(port, "GET", f"/v1/jobs/{rec['id']}",
                                     conn=conn)
            results = (view.get("result") or {}).get("results") or []
            if status != 200 or len(results) != 1:
                problem = f"job view HTTP {status} with {len(results)} results"
        if problem is None:
            from repro.api import ScheduleResult
            result = ScheduleResult.from_dict(results[0])
            problem = common.check_result(ref, inst, result)
        if problem is not None:
            failed += 1
            errors.append(f"{key}: {problem}")
            continue
        spans.append((rec["due"], rec["end"]))
        if result.failure is None:
            ratios.append(result.makespan / ref[key]["bound"])
        sweep_ok += sum(1 for p in result.sweep if p.status == "ok")
        sweep_all += len(result.sweep)
        status = view["status"]
        accept.append(rec["accepted"] - rec["sent"])
        wait.append(max(0.0, status["started_at"] - rec["accepted_wall"]))
        run_s.append(status["finished_at"] - status["started_at"])
        if not view["result"]["cache_hits"]:
            overhead.append(run_s[-1] - result.runtime)

    _, stats = _get_json(port, "GET", "/v1/stats", conn=conn)
    conn.close()
    repeats = sum(1 for _, _, repeat in schedule if repeat)
    want = {"hits": repeats,
            "misses": len(schedule) - repeats + WARMUP_JOBS}
    got = {"hits": stats["cache"]["hits"], "misses": stats["cache"]["misses"]}
    if got != want:
        errors.append(f"cache split {got} != {want} implied by the schedule")
        failed += abs(got["hits"] - want["hits"])
    late = [rec["sent"] - rec["due"] for rec in records if "sent" in rec]
    return {
        "attempted": len(schedule), "failed": min(failed, len(schedule)),
        "errors": errors, "spans": spans, "ratios": ratios,
        "completed": len(spans), "requests": len(schedule),
        "kprime_ok": sweep_ok, "kprime_all": sweep_all,
        "cache_hits": got["hits"], "cache_misses": got["misses"],
        "service": {
            "accept_s": common.median(accept) if accept else 0.0,
            "queue_wait_s": common.median(wait) if wait else 0.0,
            "run_s": common.median(run_s) if run_s else 0.0,
            "overhead_s": common.median(overhead) if overhead else 0.0,
            "late_max_s": max(late) if late else 0.0,
        },
    }
