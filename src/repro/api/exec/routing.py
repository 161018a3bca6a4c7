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
"""

from __future__ import annotations

import os
from typing import Optional

from repro.api.exec.backends import get_backend

#: environment override consulted between the explicit argument and the
#: worker-count rule
BACKEND_ENV = "REPRO_BACKEND"


def route(*, backend: Optional[str] = None, workers: int = 1) -> str:
    """The canonical backend name a batch of ``workers`` should run on."""
    if backend is not None:
        return get_backend(backend).name
    env = os.environ.get(BACKEND_ENV, "").strip()
    if env:
        return get_backend(env).name
    # one worker gains nothing from a pool
    return "serial" if workers <= 1 else "process"
