"""Shared fixtures for the per-figure benchmarks (helpers: ``benchutil``)."""

from __future__ import annotations

import pytest
from benchutil import bench_kwargs


@pytest.fixture
def figure_kwargs():
    return bench_kwargs()
