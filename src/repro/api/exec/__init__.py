"""repro.api.exec — the execution backends and per-request policy.

* :mod:`repro.api.exec.policy` — frozen, JSON-round-trippable
  :class:`ExecutionPolicy` (per-request ``timeout_s``, ``retries``,
  ``retry_backoff``, ``on_timeout``), carried on ``ScheduleRequest`` and
  enforced uniformly by every backend;
* :mod:`repro.api.exec.backends` — the :class:`ExecutionBackend`
  protocol, the fixed name table of the three backends
  (:func:`get_backend`, :func:`create_backend`), and the two in-process
  engines (``serial``, ``process``);
* :mod:`repro.api.exec.routing` — :func:`route`, the override >
  ``REPRO_BACKEND`` > worker-count dispatcher;
* :mod:`repro.api.exec.queue` / :mod:`repro.api.exec.worker` — the
  ``queue`` backend: a filesystem spool shared with independent
  ``repro worker`` processes (atomic-rename claims, heartbeat leases,
  poison tombstones); the batch façade stays the only reader and writer
  of the result cache.
"""

from repro.api.exec.backends import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    Submission,
    available_backends,
    create_backend,
    failure_result,
    get_backend,
    solve_with_policy,
)
from repro.api.exec.policy import ON_TIMEOUT_CHOICES, ExecutionPolicy
from repro.api.exec.queue import QueueBackend, Spool
from repro.api.exec.routing import BACKEND_ENV, route
from repro.api.exec.worker import run_worker

__all__ = [
    "BACKEND_ENV",
    "ExecutionBackend",
    "ExecutionPolicy",
    "ON_TIMEOUT_CHOICES",
    "ProcessBackend",
    "QueueBackend",
    "SerialBackend",
    "Spool",
    "Submission",
    "available_backends",
    "create_backend",
    "failure_result",
    "get_backend",
    "route",
    "run_worker",
    "solve_with_policy",
]
