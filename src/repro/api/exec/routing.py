"""Backend routing for one request batch.

:func:`route` picks the execution backend the batch façade will use.
Precedence, highest first:

1. an explicit ``backend=`` override (CLI ``--backend``, scenario
   ``execution.backend``, direct API argument) — always wins;
2. the ``REPRO_BACKEND`` environment variable;
3. worker count: ``workers <= 1`` is ``serial`` (parallel engines would
   only add overhead), anything more is ``process`` — CPU-bound Python
   scheduling wants real parallelism.

The router validates every name it resolves, so a typo in
``REPRO_BACKEND`` fails loudly instead of silently running serial.

Nested batches are safe by construction: inside a backend worker — a
daemonic pool process, a ``queue`` worker (``REPRO_EXEC_NESTED``), or
the ``repro-exec-attempt`` watchdog thread that runs a solve under an
:class:`~repro.api.exec.policy.ExecutionPolicy` timeout, e.g. the
portfolio meta-scheduler calling ``solve_batch`` from within a solve —
the router falls back to ``serial``: daemonic processes cannot fork
children, forking from a multithreaded parent risks the classic
fork-with-locks deadlock, and nested pools would only oversubscribe an
already-saturated machine. An explicit ``backend=`` argument is honoured
as written (and fails loudly if it cannot work there).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import Optional

from repro.api.exec.backends import get_backend

#: environment override consulted between the explicit argument and the
#: worker-count rule
BACKEND_ENV = "REPRO_BACKEND"

#: set (to any non-empty value) in queue-backend worker processes:
#: nested batches there must run serial — a worker that re-routed to
#: ``queue`` would spool into a brand-new queue and spawn grandchildren
NESTED_ENV = "REPRO_EXEC_NESTED"


def route(*, backend: Optional[str] = None, workers: int = 1) -> str:
    """The canonical backend name a batch of ``workers`` should run on."""
    if backend is not None:
        return get_backend(backend).name
    nested = (multiprocessing.current_process().daemon
              or threading.current_thread().name.startswith("repro-exec")
              or bool(os.environ.get(NESTED_ENV)))
    env = os.environ.get(BACKEND_ENV, "").strip()
    if env:
        name = get_backend(env).name  # validate even when overridden below
        if not nested:
            return name
    if nested or workers <= 1:
        # one worker gains nothing from a pool; inside a backend worker
        # forking is impossible (daemonic process) or unsafe (watchdog
        # thread), and extra pools only thrash a saturated machine
        return "serial"
    return "process"
