"""Kernel selection: one dispatch point for the numeric hot loops.

Selection order:

1. a programmatic override (:func:`set_kernel` / :func:`use_kernel`);
2. the ``REPRO_KERNEL`` environment variable — ``reference``, ``array``,
   or ``auto`` (default);
3. ``auto`` resolves to the array kernel when numpy imports, with a
   small-instance cutoff (:data:`~repro.core.kernels.array.DEFAULT_CUTOFF`,
   256 blocks) below which it delegates to the reference loops; without
   numpy it quietly
   resolves to ``reference``.

``REPRO_KERNEL=array`` is an explicit opt-in: it forces the array path
at *every* size (no cutoff) and raises if numpy is unavailable — this is
what the differential tests and the CI kernel-matrix leg run under.
Whatever is selected, results are bit-for-bit identical; the choice is a
pure performance knob.

This module imports neither implementation at load time: the reference
kernel pulls in :mod:`repro.core.makespan` (which itself dispatches
here) and the array kernel pulls in numpy, so both load lazily on first
:func:`get_kernel` call.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Optional

from repro.core.kernels.base import Kernel

KERNEL_NAMES = ("reference", "array", "auto")

_instances: Dict[str, Kernel] = {}
_override: Optional[str] = None


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
        return True
    except ImportError:  # pragma: no cover
        return False


def kernel_name() -> str:
    """The currently selected kernel name (before ``auto`` resolution)."""
    if _override is not None:
        return _override
    name = os.environ.get("REPRO_KERNEL", "auto").strip().lower() or "auto"
    if name not in KERNEL_NAMES:
        raise ValueError(f"unknown REPRO_KERNEL={name!r}; "
                         f"valid: {', '.join(KERNEL_NAMES)}")
    return name


def get_kernel() -> Kernel:
    """The active :class:`Kernel` instance (cached per selection)."""
    name = kernel_name()
    kernel = _instances.get(name)
    if kernel is not None:
        return kernel
    if name == "reference":
        from repro.core.kernels.reference import ReferenceKernel
        kernel = ReferenceKernel()
    elif name == "array":
        if not _numpy_available():  # pragma: no cover
            raise ImportError(
                "REPRO_KERNEL=array requires numpy; install it or use "
                "REPRO_KERNEL=reference")
        from repro.core.kernels.array import ArrayKernel
        kernel = ArrayKernel(forced=True)
    else:  # auto
        if _numpy_available():
            from repro.core.kernels.array import ArrayKernel
            kernel = ArrayKernel(forced=False)
        else:  # pragma: no cover
            from repro.core.kernels.reference import ReferenceKernel
            kernel = ReferenceKernel()
    _instances[name] = kernel
    return kernel


def set_kernel(name: Optional[str]) -> Optional[str]:
    """Override the selection (``None`` restores env-based resolution).

    Returns the previous override so callers can restore it.
    """
    global _override
    if name is not None and name not in KERNEL_NAMES:
        raise ValueError(f"unknown kernel {name!r}; "
                         f"valid: {', '.join(KERNEL_NAMES)}")
    previous = _override
    _override = name
    return previous


@contextmanager
def use_kernel(name: str):
    """Context manager: run a block under a specific kernel."""
    previous = set_kernel(name)
    try:
        yield get_kernel()
    finally:
        set_kernel(previous)
