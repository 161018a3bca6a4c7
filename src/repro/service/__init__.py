"""Scheduling-as-a-service: the async HTTP layer over ``repro.api``.

Over the JSON wire format of ``ScheduleRequest`` / ``ScenarioSpec`` and
the execution backends, this package adds the front door: a
long-running asyncio HTTP/JSON server (``repro serve``) with a durable
job store, live stats and streaming progress. Its held-burst throughput gate lives in
``benchmarks/test_service_burst_gate.py``.

Layering, bottom up:

* :mod:`repro.service.jobs` — frozen ``JobSpec``/``JobStatus``/
  ``JobResult`` envelopes;
* :mod:`repro.service.store` — the durable job store, one row per job
  in one SQLite file (``STORE/jobs.db``);
* :mod:`repro.service.dispatcher` — a pool of job threads feeding
  :func:`repro.api.batch.iter_solve_batch`, all sharing one SQLite
  result cache (``--cache``);
* :mod:`repro.service.app` — the HTTP listener and graceful shutdown;
* :mod:`repro.service.client` — a blocking urllib client.
"""

from repro.service.app import ServiceApp, serve
from repro.service.client import ServiceClient, ServiceError
from repro.service.dispatcher import Dispatcher, ServiceDraining
from repro.service.jobs import JobResult, JobSpec, JobStatus
from repro.service.store import JobStore

__all__ = [
    "Dispatcher",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "JobStore",
    "ServiceApp",
    "ServiceClient",
    "ServiceDraining",
    "ServiceError",
    "serve",
]
