"""Benchmark + guard: the batch façade's per-request overhead.

Two claims are enforced:

* **no fingerprinting without a cache** — ``iter_solve_batch`` hashes the
  full workflow and cluster once per request *only* when a cache is
  attached; a cache-less sweep must never pay for it (the guard counts
  ``request_fingerprint`` calls and requires exactly zero);
* **façade overhead is bounded** — the serial backend's envelope
  machinery (routing, window bookkeeping, progress hooks) adds no more
  than a small constant factor on top of raw ``solve`` calls for tiny
  instances, where overhead would dominate if it existed.

The second claim compares wall-clock times, so it is marked
``wallclock``: the default run deselects it (and keeps only the check
that the façade returns the raw makespans), and CI's perf-gates leg runs
it with ``pytest -m wallclock``.
"""

from __future__ import annotations

import time

import pytest

import repro.api.cache as cache_module
from repro.api import ScheduleRequest, iter_solve_batch, open_cache, solve
from repro.core.heuristic import DagHetPartConfig
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster

FAST_CFG = DagHetPartConfig(k_prime_values=(1,))


def _requests(n: int):
    wf = generate_workflow("blast", 24, seed=5)
    cluster = default_cluster()
    return [ScheduleRequest(workflow=wf, cluster=cluster,
                            algorithm="daghetpart", config=FAST_CFG,
                            scale_memory=True, want_mapping=False,
                            tags={"i": i})
            for i in range(n)]


def test_cacheless_batch_never_fingerprints(monkeypatch):
    """The guard: zero fingerprint computations on a cache-less run."""
    calls = []
    real = cache_module.request_fingerprint
    monkeypatch.setattr(cache_module, "request_fingerprint",
                        lambda request: calls.append(request) or real(request))
    results = list(iter_solve_batch(_requests(8)))
    assert len(results) == 8 and all(r.success for r in results)
    assert calls == []  # fingerprinting is pure overhead without a cache


def test_cached_batch_fingerprints_once_per_request(monkeypatch, tmp_path):
    """The counterpart: with a cache, exactly one fingerprint per request."""
    calls = []
    real = cache_module.request_fingerprint
    monkeypatch.setattr(cache_module, "request_fingerprint",
                        lambda request: calls.append(request) or real(request))
    with open_cache(str(tmp_path / "c")) as cache:
        list(iter_solve_batch(_requests(8), cache=cache))
    assert len(calls) == 8


def test_facade_matches_raw_solves(benchmark):
    """Streaming 32 tiny solves through the façade gives the makespans of
    raw ``solve`` calls (the timed bound is
    :func:`test_facade_overhead_within_3x_raw`)."""
    requests = _requests(32)
    baseline = [solve(r) for r in requests]
    streamed = list(iter_solve_batch(requests))
    assert [r.makespan for r in streamed] == [r.makespan for r in baseline]

    results = benchmark(lambda: list(iter_solve_batch(requests)))
    assert [r.makespan for r in results] == [r.makespan for r in baseline]


@pytest.mark.wallclock
def test_facade_overhead_within_3x_raw():
    """Streaming 32 tiny solves through the façade vs raw solve calls.

    On instances small enough that envelope machinery would dominate, the
    serial façade must stay within a small multiple of bare ``solve``
    calls — an accidental re-fingerprinting or per-request pool spin-up
    shows up here as an order of magnitude.
    """
    requests = _requests(32)
    start = time.perf_counter()
    baseline = [solve(r) for r in requests]
    raw_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    streamed = list(iter_solve_batch(requests))
    facade_elapsed = time.perf_counter() - start

    assert [r.makespan for r in streamed] == [r.makespan for r in baseline]
    # generous slack (3x + 250ms) so scheduler noise never flakes CI,
    # while catching any real per-request regression
    assert facade_elapsed <= 3.0 * raw_elapsed + 0.25, (
        f"façade took {facade_elapsed:.3f}s vs {raw_elapsed:.3f}s raw")
