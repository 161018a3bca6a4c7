"""Per-request execution policy: timeout, retries, backoff.

An :class:`ExecutionPolicy` travels on
:class:`~repro.api.envelopes.ScheduleRequest` and is enforced uniformly by
every execution backend alike, so a scenario's timeout behaviour does
not change when its backend does.

Semantics
---------
A request gets ``1 + retries`` attempts. A *successful* attempt is
terminal. A failed attempt (any structured
:class:`~repro.api.envelopes.FailureInfo`) is retried until the attempts
are exhausted, sleeping ``retry_backoff * 2**(attempt - 1)`` seconds
before attempt ``attempt + 1`` — except a timeout under
``on_timeout="fail"``, which is terminal immediately: the request gives
up its remaining attempts and reports ``FailureInfo(kind="timeout")``.
``on_timeout="requeue"`` instead puts a timed-out request back through
the attempt loop like any other failure (useful when timeouts are load
artifacts, e.g. an oversubscribed machine).

Retries are deterministic: the attempt loop is sequential and the
algorithms are seeded, so the same request under the same policy always
yields the same final result — retrying a deterministic
``NoFeasibleMappingError`` simply reproduces it.

The policy is an *execution* knob, not part of the computation: it is
deliberately excluded from the result-cache fingerprint
(:func:`repro.api.cache.request_fingerprint`), exactly like ``tags``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.utils.records import Record

#: accepted values of :attr:`ExecutionPolicy.on_timeout`
ON_TIMEOUT_CHOICES = ("fail", "requeue")


@dataclass(frozen=True)
class ExecutionPolicy(Record):
    """How a backend must execute one request.

    ``timeout_s``      wall-clock budget per *attempt* (None = unlimited);
    ``retries``        extra attempts after a failed one (0 = single shot);
    ``retry_backoff``  base sleep before a retry, doubled per attempt;
    ``on_timeout``     ``"fail"`` stops at the first timeout, ``"requeue"``
                       re-attempts a timed-out request like any failure.
    """

    timeout_s: Optional[float] = None
    retries: int = 0
    retry_backoff: float = 0.0
    on_timeout: str = "fail"

    def __post_init__(self):
        if self.timeout_s is not None:
            timeout = float(self.timeout_s)
            if not math.isfinite(timeout) or timeout <= 0:
                raise ValueError(
                    f"timeout_s must be a positive finite number or None, "
                    f"got {self.timeout_s!r}")
            object.__setattr__(self, "timeout_s", timeout)
        retries = int(self.retries)
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries!r}")
        object.__setattr__(self, "retries", retries)
        backoff = float(self.retry_backoff)
        if not math.isfinite(backoff) or backoff < 0:
            raise ValueError(
                f"retry_backoff must be a finite number >= 0, "
                f"got {self.retry_backoff!r}")
        object.__setattr__(self, "retry_backoff", backoff)
        if self.on_timeout not in ON_TIMEOUT_CHOICES:
            raise ValueError(
                f"on_timeout must be one of {ON_TIMEOUT_CHOICES}, "
                f"got {self.on_timeout!r}")

    @property
    def attempts(self) -> int:
        """Total attempts a backend may spend on a request."""
        return 1 + self.retries

    def backoff_s(self, attempt: int) -> float:
        """Sleep before re-attempt number ``attempt`` (1-based retry index)."""
        if attempt < 1 or self.retry_backoff == 0.0:
            return 0.0
        return self.retry_backoff * (2.0 ** (attempt - 1))
