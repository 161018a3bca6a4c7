"""Scheduling-as-a-service: submit, stream, poll, stats, graceful drain.

Boots a real :class:`repro.service.ServiceApp` on an ephemeral port (the
same code path as ``repro serve``), then walks the whole client surface:

1. submit a single ``ScheduleRequest`` and poll it to completion —
   the result record matches an offline ``solve`` bit-for-bit;
2. submit a full ``ScenarioSpec`` (a 2-family x 2-algorithm grid) and
   watch its progress over the chunked ``/v1/jobs/{id}/events`` stream;
3. read ``/v1/stats`` — queue depth, per-backend throughput, and the
   shared result cache's hit rate (the same numbers
   ``repro cache stats URI`` prints offline);
4. drain gracefully via ``POST /v1/shutdown`` and show that a
   submission after the drain begins is refused with 503 while
   everything accepted earlier landed durably in the job store.

Run:  python examples/service_demo.py
(set REPRO_EXAMPLE_SCALE=10 for a tiny smoke-test corpus, as CI does)
"""

import asyncio
import os
import shutil
import tempfile
import threading

from repro.api import (
    AlgorithmSpec,
    FamilyGridSource,
    PlatformAxis,
    ScenarioSpec,
    ScheduleRequest,
    solve,
)
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster
from repro.service import JobStore, ServiceApp, ServiceClient, ServiceError

#: divisor for task counts; CI's examples smoke job sets this to 10
SCALE = int(os.environ.get("REPRO_EXAMPLE_SCALE", "1"))
N_TASKS = max(16, 160 // SCALE)


def start_service(store_dir: str, cache_uri: str):
    """Run a ServiceApp in a background event-loop thread; return it."""
    holder = {}
    started = threading.Event()

    def run():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        async def main():
            app = ServiceApp(store_dir, cache=cache_uri, workers=2)
            await app.start(host="127.0.0.1", port=0)
            holder["app"] = app
            started.set()
            await app.wait_closed()

        loop.run_until_complete(main())
        loop.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    started.wait(20)
    return holder["app"], thread


def main():
    tmp = tempfile.mkdtemp(prefix="repro-service-demo-")
    try:
        demo(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def demo(tmp: str):
    """Walk the client surface against a service storing under ``tmp``."""
    store_dir = os.path.join(tmp, "store")
    cache_uri = "sqlite://" + os.path.join(tmp, "cache.db")
    app, thread = start_service(store_dir, cache_uri)
    client = ServiceClient(f"http://127.0.0.1:{app.port}")
    print(f"service up on http://127.0.0.1:{app.port} (store: {store_dir})")

    # -- 1. single request: service result == offline result -----------
    request = ScheduleRequest(
        workflow=generate_workflow("blast", N_TASKS, seed=11),
        cluster=default_cluster(), algorithm="daghetpart",
        scale_memory=True, tags={"origin": "service_demo"})
    accepted = client.submit_schedule(request.to_dict())
    print(f"\nsubmitted schedule job {accepted['id']} "
          f"({accepted['total']} request)")
    view = client.wait(accepted["id"])
    (record,) = view["result"]["results"]
    offline = solve(request)
    print(f"service makespan {record['makespan']:.2f} / "
          f"offline {offline.makespan:.2f} "
          f"(identical: {record['makespan'] == offline.makespan})")

    # -- 2. scenario job, followed over the event stream ----------------
    spec = ScenarioSpec(
        name="demo-grid",
        workflows=(FamilyGridSource(families=("blast", "bwa"),
                                    sizes=(N_TASKS,), seed=7),),
        platforms=(PlatformAxis(preset="default", bandwidths=(1.0,)),),
        algorithms=(AlgorithmSpec("daghetpart"), AlgorithmSpec("daghetmem")),
        scale_memory=True)
    accepted = client.submit_scenario(spec.to_dict())
    print(f"\nsubmitted scenario job {accepted['id']} "
          f"({accepted['total']} requests); streaming events:")
    for event in client.events(accepted["id"]):
        if event["event"] == "tick":
            print(f"  [{event['completed']}/{event['total']}] "
                  f"{event['workflow']} / {event['algorithm']}: "
                  f"makespan {event['makespan']:.2f}")
        elif event["event"] == "end":
            print(f"  job {event['state']}")

    # resubmitting the same spec is served from the shared cache
    repeat = client.submit_scenario(spec.to_dict())
    result = client.wait(repeat["id"])["result"]
    print(f"resubmitted: cache_hits={result['cache_hits']} "
          f"cache_misses={result['cache_misses']}")

    # -- 3. stats -------------------------------------------------------
    stats = client.stats()
    cache = stats["cache"]
    print(f"\nstats: {stats['completed_jobs']} jobs / "
          f"{stats['completed_requests']} requests completed, "
          f"queue depth {stats['queue_depth']}")
    for name, b in stats["backends"].items():
        print(f"  backend {name}: {b['requests']} requests "
              f"at {b['requests_per_s']:.1f}/s")
    print(f"  cache {cache['kind']} ({cache['location']}): "
          f"{cache['entries']} entries, hit rate {cache['hit_rate']}")

    # -- 4. graceful drain ---------------------------------------------
    client.shutdown()
    thread.join(30)
    try:
        client.submit_schedule(request.to_dict())
    except (ServiceError, OSError) as exc:
        print(f"\nsubmission after shutdown refused: {exc}")
    with JobStore(store_dir) as store:
        print(f"job store after drain: {store.counts()} (all durable)")


if __name__ == "__main__":
    main()
