"""Shared fixtures: the paper's Fig. 1 worked example, small clusters, DAGs."""

from __future__ import annotations

import importlib
import threading
import time

import pytest

from repro.platform.cluster import Cluster
from repro.platform.processor import Processor
from repro.workflow.graph import Workflow


@pytest.fixture
def fig1_workflow() -> Workflow:
    """The 9-task example DAG of Fig. 1 with unit weights.

    Reconstructed to satisfy every fact the paper states: task 1 is the
    single source, task 9 the single target, parents of 6 are {3, 4},
    children of 6 are {7, 8}, and merging tasks 4 and 9 would create a
    cyclic quotient through edges (4, 6) and (8, 9).
    """
    wf = Workflow("fig1")
    for u in range(1, 10):
        wf.add_task(u, work=1.0, memory=1.0)
    for u, v in [(1, 2), (1, 3), (2, 4), (3, 4),   # inside V1
                 (2, 5),                           # V1 -> V2
                 (3, 6), (4, 6),                   # V1 -> V3 (cost 2 total)
                 (5, 7),                           # V2 -> V3
                 (5, 9),                           # V2 -> V4
                 (6, 7), (6, 8), (7, 8),           # inside V3
                 (8, 9)]:                          # V3 -> V4
        wf.add_edge(u, v, 1.0)
    return wf


@pytest.fixture
def fig1_partition():
    """The partition F of Fig. 1: four blocks with weights 4/1/3/1."""
    return [{1, 2, 3, 4}, {5}, {6, 7, 8}, {9}]


@pytest.fixture
def unit_cluster() -> Cluster:
    """Four unit-speed processors with ample memory and unit bandwidth."""
    return Cluster([Processor(f"p{j}", speed=1.0, memory=1e9) for j in range(4)],
                   bandwidth=1.0, name="unit4")


@pytest.fixture
def tiny_hetero_cluster() -> Cluster:
    """Small heterogeneous cluster for mapping tests."""
    return Cluster([
        Processor("big", speed=2.0, memory=100.0),
        Processor("fast", speed=8.0, memory=30.0),
        Processor("slow", speed=1.0, memory=50.0),
        Processor("tiny", speed=4.0, memory=10.0),
    ], bandwidth=1.0, name="tiny-hetero")


@pytest.fixture
def chain_workflow() -> Workflow:
    """a -> b -> c -> d with distinct weights."""
    wf = Workflow("chain4")
    for i, name in enumerate("abcd"):
        wf.add_task(name, work=float(i + 1), memory=2.0 * (i + 1))
    wf.add_edge("a", "b", 3.0)
    wf.add_edge("b", "c", 1.0)
    wf.add_edge("c", "d", 2.0)
    return wf


@pytest.fixture
def diamond_workflow() -> Workflow:
    """s -> {x, y} -> t diamond."""
    wf = Workflow("diamond")
    wf.add_task("s", work=1.0, memory=1.0)
    wf.add_task("x", work=2.0, memory=4.0)
    wf.add_task("y", work=3.0, memory=6.0)
    wf.add_task("t", work=1.0, memory=1.0)
    wf.add_edge("s", "x", 2.0)
    wf.add_edge("s", "y", 1.0)
    wf.add_edge("x", "t", 3.0)
    wf.add_edge("y", "t", 1.0)
    return wf


@pytest.fixture
def fork_workflow() -> Workflow:
    """One source fanning out to 6 leaves (no join)."""
    wf = Workflow("fork6")
    wf.add_task("root", work=1.0, memory=1.0)
    for i in range(6):
        wf.add_task(f"leaf{i}", work=float(i + 1), memory=1.0)
        wf.add_edge("root", f"leaf{i}", 1.0)
    return wf


@pytest.fixture
def in_process_sweep(monkeypatch):
    """Run every k' pipeline of a DagHetPart sweep in this process.

    A sweep may fork its pipelines over processes, and work done in a
    child is invisible to the counters a test patches in; a count test
    asks for this fixture so it counts the whole sweep.
    """
    heuristic = importlib.import_module("repro.core.heuristic")
    monkeypatch.setattr(heuristic, "_sweep_workers",
                        lambda n_tasks, n_candidates: 1)


#: the thread a policy watchdog runs each timed attempt in
_ATTEMPT_THREAD = "repro-exec-attempt"


def _attempt_threads():
    return {t for t in threading.enumerate()
            if t.name == _ATTEMPT_THREAD and t.is_alive()}


@pytest.fixture(autouse=True)
def no_abandoned_attempts():
    """Fail a test that leaves a timed-out solve attempt running.

    A policy watchdog abandons its attempt thread at the timeout. While
    one is alive the process has more than one thread, so every later
    DagHetPart sweep stays in process instead of forking; a test whose
    algorithm outlives its timeout releases it in its teardown.
    """
    before = _attempt_threads()
    yield
    left = _attempt_threads() - before
    deadline = time.monotonic() + 2.0
    for thread in left:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = sorted(t.ident for t in left if t.is_alive())
    if alive:
        pytest.fail(f"{len(alive)} {_ATTEMPT_THREAD} thread(s) still "
                    f"running after the test (idents {alive})")
